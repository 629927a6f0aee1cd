package mr

import (
	"os"
	"runtime"
	"sync"

	"vsmartjoin/internal/mrfs"
)

// slot is the staging storage of one worker: every batch a map or reduce
// task fills and drains while it runs, plus the one sort and merge
// scratch all of them share. Slots outlive the Run that used them — a
// process-wide pool keeps them between jobs with their capacity, so a
// pipeline's jobs, and the next pipeline's, regrow nothing they have met
// before. Nothing a task hands out lives in a slot: finish copies map
// output into batches of the task's own, and each reduce task copies its
// staged output into an exactly sized batch. The one exception, the
// spill file the job's spans read, is closed and dropped when the Run
// ends, so a pooled slot keeps no file.
type slot struct {
	parts []mrfs.Batch // map emission, one batch per reduce partition
	spare mrfs.Batch   // the combiner's output, swapped with the partition it replaces
	in    mrfs.Batch   // reduce input: the gathered partition, or under a spill cap the current key group
	ends  []int        // the run ends of in's merge
	out   mrfs.Batch   // reduce output, copied out at task end
	// scratch serves every Sort and MergeRuns of the batches above.
	scratch mrfs.Scratch
	// spill is the slot's spill file in the current Run, created by the
	// first map task on the slot that spills and appended to by every
	// later one; spillW appends runs to it. Run closes it (closeSpill)
	// before the slot goes back to the pool.
	spill  *os.File
	spillW *mrfs.SegmentWriter
}

// closeSpill closes the slot's spill file, if it has one, and forgets
// it. The file is scratch in a dir Run removes: a failed Close loses
// nothing.
func (s *slot) closeSpill() {
	if s.spill != nil {
		s.spill.Close()
		s.spill, s.spillW = nil, nil
	}
}

// resize gives the slot n map emission batches, dropping any past n so a
// slot does not keep storage its current job cannot use.
func (s *slot) resize(n int) {
	if len(s.parts) < n {
		s.parts = append(s.parts, make([]mrfs.Batch, n-len(s.parts))...)
	}
	clear(s.parts[n:])
	s.parts = s.parts[:n]
}

// footprint reports the bytes the slot's storage holds.
func (s *slot) footprint() int64 {
	n := s.spare.Footprint() + s.in.Footprint() + s.out.Footprint() + s.scratch.Footprint() + int64(cap(s.ends))*8
	for i := range s.parts {
		n += s.parts[i].Footprint()
	}
	return n
}

// reset empties every batch of the slot, keeping its storage.
func (s *slot) reset() {
	for i := range s.parts {
		s.parts[i].Reset()
	}
	s.spare.Reset()
	s.in.Reset()
	s.out.Reset()
	s.ends = s.ends[:0]
}

// pool holds the idle slots, at most GOMAXPROCS of them. It is a plain
// list rather than a sync.Pool: the collector empties a sync.Pool every
// cycle or two, and a join runs many cycles between two jobs.
var pool struct {
	sync.Mutex
	idle []*slot
}

// takeSlots hands out n slots, idle ones first, new ones for the rest. A
// slot belongs to one caller until returnSlots, so concurrent Runs never
// share one.
func takeSlots(n int) []*slot {
	taken := make([]*slot, n)
	pool.Lock()
	k := min(n, len(pool.idle))
	rest := len(pool.idle) - k
	copy(taken, pool.idle[rest:])
	clear(pool.idle[rest:])
	pool.idle = pool.idle[:rest]
	pool.Unlock()
	for i := k; i < n; i++ {
		taken[i] = new(slot)
	}
	return taken
}

// returnSlots empties the slots and pools them, keeping their capacity. A
// slot holding more than budget bytes — the job's MemPerMachine — is
// dropped rather than kept, and so is every slot past GOMAXPROCS.
func returnSlots(taken []*slot, budget int64) {
	pool.Lock()
	defer pool.Unlock()
	for _, s := range taken {
		if len(pool.idle) >= runtime.GOMAXPROCS(0) || s.footprint() > budget {
			continue
		}
		s.reset()
		pool.idle = append(pool.idle, s)
	}
}
