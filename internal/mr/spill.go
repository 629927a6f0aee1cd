package mr

import (
	"bytes"
	"container/heap"
	"fmt"
	"os"
	"path/filepath"

	"vsmartjoin/internal/mrfs"
)

// Spill-to-disk shuffle. When ClusterConfig.ShuffleBufferBytes is set, a
// map task bounds its in-memory buffer — the worker's emission batches:
// whenever the buffered bytes exceed the cap, every partition's batch is
// sealed — sorted, and combined when the job has a dedicated combiner —
// exactly as at the end of an in-memory task, and written out as one
// sorted run per (map task, reduce partition) segment file straight from
// the sorted index. Where an in-memory reduce task gathers its
// partition's runs into one batch and merges them by key prefix (see
// gather), a spilling job's reduce task streams the partition through a
// k-way merge of its runs; the merge reads segments back through reused
// buffers and copies out only the one key group being reduced.
//
// Because runs are sorted by the total order (key, sec, val) and equal
// records are byte-identical, the merged stream of a combiner-less job is
// byte-for-byte the sequence the in-memory merge produces. With a
// dedicated combiner, combining happens once per spill run, so the
// reducer may see several partial records per key where the in-memory
// path delivers one — shuffle volumes and combine counts then differ, and
// only the final reduce output (and determinism) is identical across the
// two modes.

// spill writes every buffered partition out as sorted segment files and
// empties the in-memory batches, keeping their storage for the next round.
func (m *mapTask) spill() error {
	for p := range m.buf.parts {
		if m.buf.parts[p].Len() == 0 {
			continue
		}
		if err := m.seal(p); err != nil {
			return err
		}
		b := &m.buf.parts[p]
		path := filepath.Join(m.dir, fmt.Sprintf("map%04d-spill%04d-part%04d.seg", m.ctx.TaskIndex, m.spills, p))
		fileBytes, err := writeRun(path, b)
		if err != nil {
			return fmt.Errorf("mr: job %q map task %d: %w", m.job.Name, m.ctx.TaskIndex, err)
		}
		m.runs[p] = append(m.runs[p], path)
		m.spilledRecs += int64(b.Len())
		m.spilledBytes += fileBytes
		b.Reset()
	}
	m.spills++
	m.curBytes = 0
	return nil
}

// writeRun writes a sorted batch as one segment file, straight from its
// index, and reports the file bytes written.
func writeRun(path string, b *mrfs.Batch) (int64, error) {
	// A record's frame is at most 8 bytes longer than its Size while each
	// field is under 16 KiB, so this bounds the file and sizes the buffer.
	w, err := mrfs.CreateSegment(path, b.Bytes()+8*int64(b.Len()))
	if err != nil {
		return 0, err
	}
	for i := 0; i < b.Len(); i++ {
		if err := w.Write(b.Record(i)); err != nil {
			w.Close()
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.Bytes(), nil
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

// run streams one sorted run of records. The record next returns is a
// view valid until the following call.
type run interface {
	next() (mrfs.Record, bool, error)
	close() error
}

// batchRun iterates an in-memory sorted run.
type batchRun struct {
	b *mrfs.Batch
	i int
}

func (s *batchRun) next() (mrfs.Record, bool, error) {
	if s.i >= s.b.Len() {
		return mrfs.Record{}, false, nil
	}
	s.i++
	return s.b.Record(s.i - 1), true, nil
}

func (s *batchRun) close() error { return nil }

// segmentRun iterates a spilled on-disk run, tracking the file bytes read
// so the reduce task can be charged for re-reading spilled data.
type segmentRun struct {
	r    *mrfs.SegmentReader
	read *int64
}

func (s *segmentRun) next() (mrfs.Record, bool, error) {
	before := s.r.Bytes()
	rec, ok, err := s.r.Next()
	*s.read += s.r.Bytes() - before
	return rec, ok, err
}

func (s *segmentRun) close() error { return s.r.Close() }

// mergeItem is one heap entry of the k-way merge: a run and its current
// record.
type mergeItem struct {
	rec mrfs.Record
	src int
	run run
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if c := mrfs.Compare(h[i].rec, h[j].rec); c != 0 {
		return c < 0
	}
	return h[i].src < h[j].src // equal records: stable by run index
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeIter merges sorted runs into one globally sorted stream.
type mergeIter struct {
	h    mergeHeap
	runs []run
}

// newMergeIter primes a merge over the given runs. It takes ownership of
// the runs; all of them are closed together by close().
func newMergeIter(runs []run) (*mergeIter, error) {
	m := &mergeIter{runs: runs}
	for i, r := range runs {
		rec, ok, err := r.next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.h = append(m.h, mergeItem{rec: rec, src: i, run: r})
		}
	}
	heap.Init(&m.h)
	return m, nil
}

// peek returns the stream's current record without consuming it: a view
// valid until the next advance. ok is false at the end of the stream.
func (m *mergeIter) peek() (rec mrfs.Record, ok bool) {
	if len(m.h) == 0 {
		return mrfs.Record{}, false
	}
	return m.h[0].rec, true
}

// advance consumes the current record.
func (m *mergeIter) advance() error {
	top := &m.h[0]
	rec, ok, err := top.run.next()
	if err != nil {
		return err
	}
	if ok {
		top.rec = rec
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return nil
}

func (m *mergeIter) close() error {
	var first error
	for _, r := range m.runs {
		if err := r.close(); err != nil && first == nil {
			first = err
		}
	}
	m.runs = nil
	return first
}

// merged reduces reduce partition p as the k-way merge of the map tasks'
// runs for it. Only one key group is materialized at a time — copied into
// a reused batch, since the merge's records are views of buffers the next
// read overwrites — so a spilled partition never has to fit in memory.
func (g *groupReducer) merged(maps []*mapTask, p int, dir string, readBytes *int64) error {
	runs, err := partitionRuns(maps, p, dir, readBytes)
	var m *mergeIter
	if err == nil {
		m, err = newMergeIter(runs)
	}
	if err != nil {
		return fmt.Errorf("mr: job %q reduce task %d: %w", g.job.Name, p, err)
	}
	defer m.close()
	for rec, ok := m.peek(); ok; {
		g.group.Reset()
		for ; ok && (g.group.Len() == 0 || bytes.Equal(rec.Key, g.group.Key(0))); rec, ok = m.peek() {
			err := g.group.Append(rec.Key, rec.Sec, rec.Val)
			if err == nil {
				err = m.advance()
			}
			if err != nil {
				return fmt.Errorf("mr: job %q reduce task %d: %w", g.job.Name, p, err)
			}
		}
		if err := g.reduce(g.group, 0, g.group.Len(), g.group.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// maxMergeFanIn caps how many segment files a single merge keeps open at
// once. A heavily spilling job can leave mapTasks × spillRounds runs per
// partition; merging them in one pass would exhaust file descriptors at
// exactly the scales spilling exists for, so wider run sets are first
// compacted into intermediate segments, maxMergeFanIn at a time.
const maxMergeFanIn = 64

// partitionRuns assembles the sorted runs of one reduce partition across
// all finished map tasks: the in-memory leftovers plus every spilled
// segment. Run sets wider than maxMergeFanIn are pre-merged on disk.
// readBytes accumulates the spill I/O performed (segment bytes read, plus
// intermediate merge reads and writes).
func partitionRuns(maps []*mapTask, p int, dir string, readBytes *int64) ([]run, error) {
	var paths []string
	var its []run
	for _, m := range maps {
		if m.parts[p].Len() > 0 {
			its = append(its, &batchRun{b: &m.parts[p]})
		}
		paths = append(paths, m.runs[p]...)
	}
	paths, err := compactRuns(dir, p, paths, readBytes)
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		r, err := mrfs.OpenSegment(path)
		if err != nil {
			for _, it := range its {
				it.close()
			}
			return nil, err
		}
		its = append(its, &segmentRun{r: r, read: readBytes})
	}
	return its, nil
}

// compactRuns repeatedly merges batches of maxMergeFanIn segment files
// into larger intermediate segments until at most maxMergeFanIn remain,
// deleting each batch's inputs to bound disk usage. Merging sorted runs
// yields a sorted run, so the final k-way merge output is unchanged.
func compactRuns(dir string, p int, paths []string, ioBytes *int64) ([]string, error) {
	for round := 0; len(paths) > maxMergeFanIn; round++ {
		var next []string
		for start := 0; start < len(paths); start += maxMergeFanIn {
			end := start + maxMergeFanIn
			if end > len(paths) {
				end = len(paths)
			}
			batch := paths[start:end]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			out := filepath.Join(dir, fmt.Sprintf("compact-part%04d-round%02d-%06d.seg", p, round, start))
			if err := mergeSegments(batch, out, ioBytes); err != nil {
				return nil, err
			}
			next = append(next, out)
		}
		paths = next
	}
	return paths, nil
}

// mergeSegments merges the sorted runs in paths into a single sorted
// segment at outPath, removing the inputs afterwards. The bytes read and
// written are added to ioBytes.
func mergeSegments(paths []string, outPath string, ioBytes *int64) error {
	var read, size int64
	var its []run
	for _, path := range paths {
		r, err := mrfs.OpenSegment(path)
		if err != nil {
			for _, it := range its {
				it.close()
			}
			return err
		}
		size += r.Size()
		its = append(its, &segmentRun{r: r, read: &read})
	}
	m, err := newMergeIter(its)
	if err != nil {
		return err
	}
	defer m.close()
	w, err := mrfs.CreateSegment(outPath, size)
	if err != nil {
		return err
	}
	for rec, ok := m.peek(); ok; rec, ok = m.peek() {
		err := w.Write(rec)
		if err == nil {
			err = m.advance()
		}
		if err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	*ioBytes += read + w.Bytes()
	for _, path := range paths {
		os.Remove(path)
	}
	return nil
}
