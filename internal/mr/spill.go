package mr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"vsmartjoin/internal/mrfs"
)

// Spill-to-disk shuffle. When ClusterConfig.ShuffleBufferBytes is set, a
// map task bounds its in-memory buffer — the worker's emission batches:
// whenever the buffered bytes exceed the cap, every partition's batch is
// sealed — sorted, and combined when the job has a dedicated combiner —
// exactly as at the end of an in-memory task, and appended straight from
// the sorted index, as one sorted run, to the spill file of the worker's
// slot: the first spill on a slot in a job creates it, named after the
// task that spilled, and every later map task on that slot appends to it,
// so a job creates at most one map file per worker, however many map
// tasks spill. A run is a byte range of that file, a span. Where an
// in-memory reduce task gathers its partition's runs into one batch and
// merges them by key prefix (see gather), a spilling job's reduce task
// streams the partition through a k-way merge of its runs, reading each
// span through ReadAt, so reduce tasks share the map files, and copying
// out only the one key group being reduced.
//
// Because runs are sorted by the total order (key, sec, val) and equal
// records are byte-identical, the merged stream of a combiner-less job is
// byte-for-byte the sequence the in-memory merge produces. With a
// dedicated combiner, combining happens once per spill run, so the
// reducer may see several partial records per key where the in-memory
// path delivers one — shuffle volumes and combine counts then differ, and
// only the final reduce output (and determinism) is identical across the
// two modes.
//
// Disk use: the map files live until Run ends. Compaction appends its
// merged runs to a file of the partition's own, removed when its reduce
// task ends; its inputs are ranges of files it cannot shrink, so until
// then the partition's spilled bytes sit on disk once in the map files
// and once more per compaction round.

// span is one spilled run: the n bytes at off of a spill file.
type span struct {
	file   *os.File
	off, n int64
}

// spill appends every buffered partition to the slot's spill file as one
// sorted run each and empties the in-memory batches, keeping their
// storage for the next round.
func (m *mapTask) spill() error {
	fail := func(err error) error {
		return fmt.Errorf("mr: job %q map task %d: %w", m.job.Name, m.ctx.TaskIndex, err)
	}
	s := m.buf
	if s.spill == nil {
		f, err := os.Create(filepath.Join(m.dir, fmt.Sprintf("map%04d.seg", m.ctx.TaskIndex)))
		if err != nil {
			return fail(err)
		}
		// This first round writes at most its emitted bytes plus 8 framing
		// bytes a record while each field is under 16 KiB, and later
		// rounds about as much: that sizes the buffer.
		s.spill, s.spillW = f, mrfs.NewSegmentWriter(f, m.curBytes+8*m.outRecords)
	}
	w, start := s.spillW, s.spillW.Bytes()
	for p := range s.parts {
		if s.parts[p].Len() == 0 {
			continue
		}
		if err := m.seal(p); err != nil {
			return err
		}
		b := &s.parts[p]
		off := w.Bytes()
		for i := 0; i < b.Len(); i++ {
			if err := w.Write(b.Record(i)); err != nil {
				return fail(err)
			}
		}
		m.runs[p] = append(m.runs[p], span{s.spill, off, w.Bytes() - off})
		m.spilledRecs += int64(b.Len())
		b.Reset()
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	m.spilledBytes += w.Bytes() - start
	m.spills++
	m.curBytes = 0
	return nil
}

// seal completes partition p of the worker's slot as a merge run:
// sorted by (key, sec, val) and, when the job has a dedicated combiner,
// grouped by key and replaced by the combiner's output, sorted again.
// Batch.Sort first checks whether its input is in order, so a combiner
// that emits in order — every combiner in internal/core does — costs the
// second sort one pass. The post-combine volume is accounted.
func (m *mapTask) seal(p int) error {
	b := &m.buf.parts[p]
	b.Sort(&m.buf.scratch)
	if m.job.Combiner != nil && b.Len() > 0 {
		m.buf.spare.Reset()
		if err := m.combiner.batch(b); err != nil {
			return err
		}
		*b, m.buf.spare = m.buf.spare, *b
		b.Sort(&m.buf.scratch)
	}
	m.combineOut += int64(b.Len())
	m.outBytes += b.Bytes()
	return nil
}

// finish seals what the map task still buffers — the whole output with no
// spill cap, the leftovers after the last spill under one — as the
// in-memory runs the reduce stage consumes. With no cap it copies each
// partition into an exactly sized batch of the task's own, leaving the
// slot's batches empty, their storage kept for the worker's next task and
// the next job; handing the doubling-grown batches over instead would
// leave the slot to regrow them. Under a cap the leftovers are small and
// the batch itself is handed over, the slot's place taken by an empty
// one: copying them shrinks a spilling job's few-megabyte heap enough
// that the collector runs ≈45 % more often (BenchmarkShuffleSpill 12 %
// slower on 2 vCPUs, segments on tmpfs). A handed-over batch carries no
// scratch; the slot's one scratch stays with the slot.
func (m *mapTask) finish() error {
	for p := range m.buf.parts {
		if err := m.seal(p); err != nil {
			return err
		}
		b := &m.buf.parts[p]
		if m.cap > 0 {
			m.parts[p], *b = *b, mrfs.Batch{}
			continue
		}
		m.parts[p].AppendBatch(b)
		b.Reset()
	}
	m.buf = nil
	return nil
}

// run streams one sorted run of records: a batchRun, or the
// mrfs.SegmentReader of a spilled run. The record Next returns is a view
// valid until the following call.
type run interface {
	Next() (mrfs.Record, bool, error)
}

// batchRun iterates an in-memory sorted run.
type batchRun struct {
	b *mrfs.Batch
	i int
}

func (s *batchRun) Next() (mrfs.Record, bool, error) {
	if s.i >= s.b.Len() {
		return mrfs.Record{}, false, nil
	}
	s.i++
	return s.b.Record(s.i - 1), true, nil
}

// open returns a run that reads s and charges its bytes to *read, so the
// reduce task pays for re-reading spilled data. A merge reads every run
// to its end or fails, so a run is charged in full when it is opened.
func (s span) open(read *int64) run {
	*read += s.n
	return mrfs.NewSegmentReader(s.file, s.off, s.n)
}

// mergeIter merges sorted runs into one globally sorted stream: a binary
// min-heap of run indexes, ordered by each run's current record and, for
// equal records, by index, so the stream is one fixed sequence. The heap
// holds plain indexes, not the records, so sifting it moves no pointers
// (under a running collector every pointer a swap moved paid a write
// barrier).
type mergeIter struct {
	runs []run
	recs []mrfs.Record // recs[i] is runs[i]'s current record
	heap []int
}

func (m *mergeIter) less(a, b int) bool {
	if c := mrfs.Compare(m.recs[a], m.recs[b]); c != 0 {
		return c < 0
	}
	return a < b
}

// down sifts the heap's entry at i down to its place.
func (m *mergeIter) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && m.less(h[r], h[c]) {
			c = r
		}
		if !m.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// newMergeIter primes a merge over the given runs.
func newMergeIter(runs []run) (*mergeIter, error) {
	m := &mergeIter{runs: runs, recs: make([]mrfs.Record, len(runs)), heap: make([]int, 0, len(runs))}
	for i, r := range runs {
		rec, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.recs[i] = rec
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

// peek returns the stream's current record without consuming it: a view
// valid until the next advance. ok is false at the end of the stream.
func (m *mergeIter) peek() (rec mrfs.Record, ok bool) {
	if len(m.heap) == 0 {
		return mrfs.Record{}, false
	}
	return m.recs[m.heap[0]], true
}

// advance consumes the current record.
func (m *mergeIter) advance() error {
	top := m.heap[0]
	rec, ok, err := m.runs[top].Next()
	if err != nil {
		return err
	}
	if ok {
		m.recs[top] = rec
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
	return nil
}

// merged reduces reduce partition p as the k-way merge of the map tasks'
// runs for it: their in-memory leftovers and every spilled span, the
// spans pre-merged on disk when there are more than maxMergeFanIn. Only
// one key group is materialized at a time — copied into a reused batch,
// since the merge's records are views of buffers the next read overwrites
// — so a spilled partition never has to fit in memory. readBytes
// accumulates the spill I/O performed: span bytes read, plus compaction's
// reads and writes.
func (g *groupReducer) merged(maps []*mapTask, p int, dir string, readBytes *int64) error {
	fail := func(err error) error {
		return fmt.Errorf("mr: job %q reduce task %d: %w", g.job.Name, p, err)
	}
	var runs []run
	var spans []span
	for _, m := range maps {
		if m.parts[p].Len() > 0 {
			runs = append(runs, &batchRun{b: &m.parts[p]})
		}
		spans = append(spans, m.runs[p]...)
	}
	if len(spans) > maxMergeFanIn {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("compact-part%04d.seg", p)))
		if err != nil {
			return fail(err)
		}
		// Scratch, removed once the merge is done: a failed Close loses
		// nothing.
		defer func() {
			f.Close()
			os.Remove(f.Name())
		}()
		if spans, err = compactRuns(f, spans, readBytes); err != nil {
			return fail(err)
		}
	}
	for _, s := range spans {
		runs = append(runs, s.open(readBytes))
	}
	m, err := newMergeIter(runs)
	if err != nil {
		return fail(err)
	}
	for rec, ok := m.peek(); ok; {
		g.group.Reset()
		for ; ok && (g.group.Len() == 0 || bytes.Equal(rec.Key, g.group.Key(0))); rec, ok = m.peek() {
			err := g.group.Append(rec.Key, rec.Sec, rec.Val)
			if err == nil {
				err = m.advance()
			}
			if err != nil {
				return fail(err)
			}
		}
		if err := g.reduce(g.group, 0, g.group.Len(), g.group.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// maxMergeFanIn caps how many runs a single merge reads at once, each
// through a read buffer of up to frame.DefaultBuffer. A heavily spilling
// job can leave mapTasks × spillRounds runs per partition; one merge of
// them all would hold memory in proportion at exactly the scales spilling
// exists for, so wider run sets are first compacted, maxMergeFanIn at a
// time.
const maxMergeFanIn = 64

// compactRuns repeatedly merges batches of maxMergeFanIn runs into larger
// intermediate runs appended to f, until at most maxMergeFanIn remain.
// Merging sorted runs yields a sorted run, so the final k-way merge output
// is unchanged. The bytes read and written are added to ioBytes.
func compactRuns(f *os.File, spans []span, ioBytes *int64) ([]span, error) {
	var size int64
	for _, s := range spans {
		size += s.n
	}
	w := mrfs.NewSegmentWriter(f, size)
	for len(spans) > maxMergeFanIn {
		var next []span
		for start := 0; start < len(spans); start += maxMergeFanIn {
			batch := spans[start:min(start+maxMergeFanIn, len(spans))]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			s, err := mergeRuns(f, w, batch, ioBytes)
			if err != nil {
				return nil, err
			}
			next = append(next, s)
		}
		spans = next
	}
	return spans, nil
}

// mergeRuns merges the sorted runs in spans into one sorted run that w
// appends to f, flushed so that a later round can read it back, and
// returns its span. The bytes read and written are added to ioBytes.
func mergeRuns(f *os.File, w *mrfs.SegmentWriter, spans []span, ioBytes *int64) (span, error) {
	runs := make([]run, len(spans))
	for i, s := range spans {
		runs[i] = s.open(ioBytes)
	}
	m, err := newMergeIter(runs)
	if err != nil {
		return span{}, err
	}
	off := w.Bytes()
	for rec, ok := m.peek(); ok; rec, ok = m.peek() {
		err := w.Write(rec)
		if err == nil {
			err = m.advance()
		}
		if err != nil {
			return span{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return span{}, err
	}
	out := span{f, off, w.Bytes() - off}
	*ioBytes += out.n
	return out, nil
}
