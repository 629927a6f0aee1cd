package mr

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vsmartjoin/internal/mrfs"
)

// Job describes one MapReduce execution.
type Job struct {
	// Name labels the job in stats and errors.
	Name string
	// Input is the dataset to map over; each partition is one map task.
	Input *mrfs.Dataset
	// Mapper transforms input records. Required.
	Mapper Mapper
	// Combiner, when non-nil, is a dedicated combiner applied to each map
	// task's output before the shuffle (the paper uses dedicated combiners
	// in every aggregation).
	Combiner Reducer
	// Reducer folds grouped values. Required.
	Reducer Reducer
	// NumReducers sets the reduce task count (defaults to the cluster's
	// machine count).
	NumReducers int
	// UsesSecondaryKeys declares that the reducer depends on value lists
	// sorted by secondary key. Hadoop-compatible clusters reject such jobs.
	UsesSecondaryKeys bool
	// SideInputs are loaded into every map task's context at map-stage
	// start; their bytes are charged to memory and to per-machine load
	// time.
	SideInputs map[string]*mrfs.Dataset
	// OutputName names the result dataset.
	OutputName string
}

// TaskIO captures the raw, cost-model-independent work quantities of one
// task, so calibration can re-price a run under any coefficients.
type TaskIO struct {
	InRecords, OutRecords int64
	InBytes, OutBytes     int64
	ExtraIO               int64 // bytes re-read (rewinds, explicit charges)
	ExtraCPU              int64 // record-equivalents from ChargeCompute
	CombineRecords        int64 // records passed through a dedicated combiner
	SpillIO               int64 // shuffle-spill bytes written (map) or read back (reduce)
}

// Cost prices the task under a cost model.
func (t TaskIO) Cost(cm CostModel) float64 {
	return cm.TaskOverhead +
		float64(t.InBytes+t.OutBytes+t.ExtraIO+t.SpillIO)*cm.IOPerByte +
		float64(t.InRecords+t.OutRecords+t.ExtraCPU+t.CombineRecords)*cm.CPUPerRecord
}

// CostProfile captures the machine-count- and coefficient-independent work
// of one job run, so the simulated time can be re-evaluated for any
// cluster width (the x-axis sweeps of Figs 5–6) or cost model without
// re-executing the join.
type CostProfile struct {
	MapTasks       []TaskIO
	ReduceTasks    []TaskIO
	ShuffleBytes   int64
	ShuffleRecords int64
	SideBytes      int64
}

// JobTimes is the simulated wall-clock breakdown of one job at a given
// machine count.
type JobTimes struct {
	Startup, Map, Shuffle, Reduce, Total float64
}

func taskCosts(tasks []TaskIO, cm CostModel) []float64 {
	out := make([]float64, len(tasks))
	for i, t := range tasks {
		out[i] = t.Cost(cm)
	}
	return out
}

// Evaluate computes the job's simulated times on w machines under cm.
func (p *CostProfile) Evaluate(w int, cm CostModel) JobTimes {
	var t JobTimes
	t.Startup = cm.JobStartup
	t.Map = maxOf(assignTasks(taskCosts(p.MapTasks, cm), w))
	if p.SideBytes > 0 {
		// Every machine loads the side table once at stage start — a fixed
		// overhead independent of the machine count.
		t.Map += float64(p.SideBytes) * cm.SideLoadPerByte
	}
	t.Shuffle = float64(p.ShuffleBytes)*cm.NetPerByte/float64(w) +
		float64(p.ShuffleRecords)*cm.CPUPerRecord/float64(w)
	t.Reduce = maxOf(assignTasks(taskCosts(p.ReduceTasks, cm), w))
	t.Total = t.Startup + t.Map + t.Shuffle + t.Reduce
	return t
}

// JobStats reports the simulated cost and volume of one job run.
type JobStats struct {
	Name        string
	Machines    int
	MapTasks    int
	ReduceTasks int

	// Profile allows re-evaluating the times at other machine counts.
	Profile CostProfile

	MapInRecords   int64
	MapOutRecords  int64 // before combining
	CombineOutRecs int64 // records after combining (== MapOutRecords when no combiner)
	ShuffleBytes   int64
	SpilledBytes   int64 // file bytes written to shuffle-spill segments
	Spills         int   // spill rounds across all map tasks
	ReduceOutRecs  int64
	OutputBytes    int64
	Counters       map[string]int64

	// Simulated seconds.
	StartupSeconds float64
	MapSeconds     float64 // slowest machine's map time
	ShuffleSeconds float64
	ReduceSeconds  float64 // slowest machine's reduce time
	TotalSeconds   float64

	// Real wall-clock seconds this in-process run took, read at the stage
	// boundaries of Run. Unlike every field above they are measured, not
	// simulated, and differ from run to run.
	WallSeconds    float64 // the whole Run call
	WallMapSeconds float64 // map tasks, including combining and spilling
	// WallShuffleSeconds is the time spent gathering and merging the
	// in-memory reduce partitions. Each reduce task gathers and merges its
	// own partition before reducing it, so the stage's wall time is split
	// between this field and WallReduceSeconds in proportion to the tasks'
	// summed gather-and-merge and reduce times. Under a spill cap the merge
	// streams inside the reduce and counts there.
	WallShuffleSeconds float64
	WallReduceSeconds  float64 // reduce tasks
}

func (s JobStats) String() string {
	return fmt.Sprintf("%s: %.1fs sim (map %.1f, shuffle %.1f, reduce %.1f) %.0fms wall (map %.0f, shuffle %.0f, reduce %.0f) mapIn=%d shuffle=%dB out=%d",
		s.Name, s.TotalSeconds, s.MapSeconds, s.ShuffleSeconds, s.ReduceSeconds,
		s.WallSeconds*1e3, s.WallMapSeconds*1e3, s.WallShuffleSeconds*1e3, s.WallReduceSeconds*1e3,
		s.MapInRecords, s.ShuffleBytes, s.ReduceOutRecs)
}

// partitionOf routes a key to a reduce partition (FNV-1a, 32 bit).
func partitionOf(key []byte, n int) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(n))
}

// mapTask is one map task: its emitter — emitted tuples are partitioned
// into one batch per reducer, every byte slice copied into the batch's
// slab (callers reuse their encode buffers) — and the work it accounts.
// Emission fills the worker's slot; finish leaves each sealed partition
// in a batch of the task's own (see finish). When a spill cap is set,
// buffers that grow past it are appended as sorted runs to the spill file
// of the worker's slot (see spill.go); with cap == 0 everything stays in
// memory.
type mapTask struct {
	ctx *TaskContext
	job *Job
	buf *slot // the worker's staging storage, while the task runs

	parts              []mrfs.Batch // the output: after finish, one sorted run per reduce partition
	inRecords, inBytes int64        // mapped so far
	outRecords         int64        // emitted (pre-combine)
	emitBytes          int64        // bytes emitted (pre-combine, cumulative)
	combineOut         int64        // records after combining (filled by seal)
	outBytes           int64        // post-combine record bytes (shuffle volume)
	combiner           groupReducer // runs job.Combiner over a sorted partition

	// Spill state. cap == 0 disables spilling entirely.
	cap          int64
	dir          string
	curBytes     int64    // bytes currently buffered in memory
	runs         [][]span // per partition: spilled runs, ranges of the slot's file, in spill order
	spills       int
	spilledRecs  int64
	spilledBytes int64 // file bytes written to segments
	err          error // first append or spill failure, surfaced after Map returns
}

func (m *mapTask) add(key, sec, val []byte) {
	if m.err != nil {
		return
	}
	if err := m.buf.parts[partitionOf(key, len(m.parts))].Append(key, sec, val); err != nil {
		m.err = fmt.Errorf("mr: job %q map task %d: %w", m.job.Name, m.ctx.TaskIndex, err)
		return
	}
	size := mrfs.Record{Key: key, Sec: sec, Val: val}.Size()
	m.outRecords++
	m.emitBytes += size
	m.curBytes += size
	if m.cap > 0 && m.curBytes > m.cap {
		m.err = m.spill()
	}
}

func (m *mapTask) Emit(key, val []byte)         { m.add(key, nil, val) }
func (m *mapTask) EmitSec(key, sec, val []byte) { m.add(key, sec, val) }

// io reports the finished task's work to the cost model.
func (m *mapTask) io() TaskIO {
	io := TaskIO{
		InRecords:  m.inRecords,
		OutRecords: m.outRecords,
		InBytes:    m.inBytes,
		OutBytes:   m.outBytes,
		ExtraIO:    m.ctx.extraIO,
		ExtraCPU:   m.ctx.extraCPU,
		SpillIO:    m.spilledBytes,
	}
	if m.job.Combiner != nil {
		io.CombineRecords = m.outRecords // combine pass
	}
	return io
}

// batchEmitter appends tuples to one batch (reduce output, combiner
// output).
type batchEmitter struct {
	out *mrfs.Batch
	err error // first refused record
}

func (e *batchEmitter) Emit(key, val []byte) { e.EmitSec(key, nil, val) }
func (e *batchEmitter) EmitSec(key, sec, val []byte) {
	if err := e.out.Append(key, sec, val); err != nil && e.err == nil {
		e.err = err
	}
}

// Run executes the job on the simulated cluster and returns the output
// dataset plus its cost statistics.
func Run(cluster ClusterConfig, job Job) (*mrfs.Dataset, JobStats, error) {
	began := time.Now()
	stats := JobStats{Name: job.Name, Machines: cluster.Machines}
	if err := cluster.Validate(); err != nil {
		return nil, stats, err
	}
	if job.Mapper == nil {
		return nil, stats, fmt.Errorf("mr: job %q has no mapper", job.Name)
	}
	if job.Reducer == nil {
		return nil, stats, fmt.Errorf("mr: job %q has no reducer", job.Name)
	}
	if job.Input == nil {
		return nil, stats, fmt.Errorf("mr: job %q has no input", job.Name)
	}
	if job.UsesSecondaryKeys && !cluster.SupportsSecondaryKeys {
		return nil, stats, fmt.Errorf("mr: job %q: %w", job.Name, ErrSecondaryKeys)
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = cluster.Machines
	}
	// Each task counts into a set of its own; the sets are merged into the
	// job's under one lock as the tasks end.
	counters := NewCounters()
	var countersMu sync.Mutex
	merge := func(c *Counters) {
		countersMu.Lock()
		counters.Merge(c)
		countersMu.Unlock()
	}
	sideBytes := int64(0)
	for _, d := range job.SideInputs {
		sideBytes += d.Bytes()
	}
	// newTask returns a task's context: counters of its own (merged into
	// the job's when the task ends), the memory budget and, for the map
	// stage, the side inputs already charged against it.
	newTask := func(index int, side bool, what string) (*TaskContext, error) {
		ctx := &TaskContext{JobName: job.Name, TaskIndex: index, Counters: NewCounters(), memBudget: cluster.MemPerMachine}
		if side {
			ctx.Side = job.SideInputs
			if err := ctx.Reserve(sideBytes); err != nil {
				return nil, fmt.Errorf("mr: job %q %s loading side inputs (%d bytes): %w", job.Name, what, sideBytes, err)
			}
		}
		return ctx, nil
	}

	// ---- Map stage ----
	// Side inputs load once, at stage start, before any record is mapped —
	// the paper's rule for keeping map functions pure. Mapper state derived
	// here is read-only during the parallel tasks.
	if s, ok := job.Mapper.(Setupper); ok {
		ctx, err := newTask(-1, true, "map setup")
		if err != nil {
			return nil, stats, err
		}
		if err := s.Setup(ctx); err != nil {
			return nil, stats, fmt.Errorf("mr: job %q map setup: %w", job.Name, err)
		}
		merge(ctx.Counters)
	}
	stats.MapTasks = job.Input.NumPartitions()
	maps := make([]*mapTask, stats.MapTasks)
	// One slot per worker of the wider stage, taken from the pool for this
	// Run and returned to it, emptied, when the Run ends.
	mapWorkers, reduceWorkers := workers(stats.MapTasks), workers(numReducers)
	slots := takeSlots(max(mapWorkers, reduceWorkers))
	defer returnSlots(slots, cluster.MemPerMachine)
	spillCap := cluster.ShuffleBufferBytes
	var spillDir string
	if spillCap > 0 {
		dir, derr := os.MkdirTemp("", "vsmartjoin-shuffle-")
		if derr != nil {
			return nil, stats, fmt.Errorf("mr: job %q: creating spill dir: %w", job.Name, derr)
		}
		spillDir = dir
		// Runs before returnSlots, after a failure too: every slot's
		// spill file is closed and dropped, then the dir removed.
		defer func() {
			for _, s := range slots {
				s.closeSpill()
			}
			os.RemoveAll(spillDir)
		}()
	}
	cm := cluster.Cost
	err := parallelFor(stats.MapTasks, mapWorkers, func(t, w int) error {
		ctx, err := newTask(t, true, fmt.Sprintf("map task %d", t))
		if err != nil {
			return err
		}
		buf := slots[w]
		buf.resize(numReducers)
		m := &mapTask{
			ctx: ctx, job: &job, buf: buf, cap: spillCap, dir: spillDir,
			parts: make([]mrfs.Batch, numReducers),
			runs:  make([][]span, numReducers),
		}
		maps[t] = m
		m.combiner = groupReducer{ctx: ctx, job: &job, fn: job.Combiner, stage: "combiner", em: batchEmitter{out: &buf.spare}}
		in := job.Input.Partition(t)
		for i := 0; i < in.Len(); i++ {
			m.inRecords++
			m.inBytes += in.Size(i)
			if err := job.Mapper.Map(ctx, in.Record(i), m); err != nil {
				return fmt.Errorf("mr: job %q map task %d: %w", job.Name, t, err)
			}
			if m.err != nil {
				return m.err
			}
			// The scheduler kills tasks that run past the deadline — check
			// incrementally so runaway replication (e.g. the VCL kernel
			// map) is stopped mid-flight rather than fully materialized.
			if cm.MaxTaskSeconds > 0 {
				running := cm.TaskOverhead +
					float64(m.inBytes)*cm.IOPerByte +
					float64(m.inRecords+m.outRecords+ctx.extraCPU)*cm.CPUPerRecord +
					float64(m.emitBytes)*cm.IOPerByte
				if running > cm.MaxTaskSeconds {
					return fmt.Errorf("mr: job %q: map task %d ran %.0fs (deadline %.0fs): %w",
						job.Name, t, running, cm.MaxTaskSeconds, ErrTaskKilled)
				}
			}
		}
		// Dedicated combiner and run preparation: finish combines each
		// partition of this task's output and leaves it a sorted merge run.
		if err := m.finish(); err != nil {
			return err
		}
		merge(ctx.Counters)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	mapped := time.Now()

	// ---- Shuffle and reduce ----
	// Every map task left each of its partitions as a run sorted by (key,
	// sec, val) — the shuffle's grouping and secondary-key ordering. With no
	// spill cap, each reduce task gathers its partition's runs into its
	// worker slot's input batch, releasing the map outputs as it copies
	// them, and merges them in memory before reducing. Under a cap the runs
	// are in-memory leftovers plus spans of the map tasks' spill files, and
	// the reduce task streams a k-way merge over them instead. Either way
	// the reducer emits into the slot's output batch, which the task copies
	// into an exactly sized out[p] when it ends.
	mapIOs := make([]TaskIO, len(maps))
	var shuffleRecords int64
	for t, m := range maps {
		mapIOs[t] = m.io()
		stats.MapInRecords += m.inRecords
		stats.MapOutRecords += m.outRecords
		stats.CombineOutRecs += m.combineOut
		stats.SpilledBytes += m.spilledBytes
		stats.Spills += m.spills
		stats.ShuffleBytes += m.outBytes
		shuffleRecords += m.spilledRecs
		for p := range m.parts {
			shuffleRecords += int64(m.parts[p].Len())
		}
	}
	reduceBegan := time.Now()
	out := make([]mrfs.Batch, numReducers) // the reducers' output, before re-striping
	stats.ReduceTasks = numReducers
	reduceIOs := make([]TaskIO, numReducers)
	// Each reduce task's gather-and-merge and reduce times, which split the
	// stage's wall time between shuffle and reduce.
	gatherTime := make([]time.Duration, numReducers)
	reduceTime := make([]time.Duration, numReducers)
	err = parallelFor(numReducers, reduceWorkers, func(p, w int) error {
		start := time.Now()
		ctx, err := newTask(p, false, fmt.Sprintf("reduce task %d", p))
		if err != nil {
			return err
		}
		s := slots[w]
		g := &groupReducer{ctx: ctx, job: &job, fn: job.Reducer, stage: "reduce", cm: cm, em: batchEmitter{out: &s.out}}
		// The partition's sorted record stream: the merged in-memory batch,
		// or a k-way merge over the map tasks' spilled and leftover runs.
		var segRead int64
		if spillCap > 0 {
			g.group = &s.in
			err = g.merged(maps, p, spillDir, &segRead)
		} else {
			gather(s, maps, p)
			gathered := time.Now()
			gatherTime[p] = gathered.Sub(start)
			start = gathered
			err = g.batch(&s.in)
		}
		s.in.Reset()
		if err == nil {
			out[p].AppendBatch(&s.out) // exactly sized: the slot keeps its own storage
		}
		s.out.Reset()
		reduceTime[p] = time.Since(start)
		if err != nil {
			return err
		}
		reduceIOs[p] = TaskIO{
			InRecords:  g.inRecords,
			OutRecords: int64(out[p].Len()),
			InBytes:    g.inBytes,
			OutBytes:   out[p].Bytes(),
			ExtraIO:    ctx.extraIO,
			ExtraCPU:   ctx.extraCPU,
			SpillIO:    segRead,
		}
		merge(ctx.Counters)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	reduced := time.Now()
	for p := range out {
		stats.OutputBytes += out[p].Bytes()
		stats.ReduceOutRecs += int64(out[p].Len())
	}
	stats.Counters = counters.Snapshot()
	striped := restripe(job.OutputName, out)

	// ---- Cost accounting ----
	stats.Profile = CostProfile{
		MapTasks:       mapIOs,
		ReduceTasks:    reduceIOs,
		ShuffleBytes:   stats.ShuffleBytes,
		ShuffleRecords: shuffleRecords,
		SideBytes:      sideBytes,
	}
	if cm.MaxTaskSeconds > 0 {
		if slowest := maxOf(taskCosts(mapIOs, cm)); slowest > cm.MaxTaskSeconds {
			return nil, stats, fmt.Errorf("mr: job %q: map task ran %.0fs (deadline %.0fs): %w",
				job.Name, slowest, cm.MaxTaskSeconds, ErrTaskKilled)
		}
		if slowest := maxOf(taskCosts(reduceIOs, cm)); slowest > cm.MaxTaskSeconds {
			return nil, stats, fmt.Errorf("mr: job %q: reduce task ran %.0fs (deadline %.0fs): %w",
				job.Name, slowest, cm.MaxTaskSeconds, ErrTaskKilled)
		}
	}

	times := stats.Profile.Evaluate(cluster.Machines, cm)
	stats.StartupSeconds = times.Startup
	stats.MapSeconds = times.Map
	stats.ShuffleSeconds = times.Shuffle
	stats.ReduceSeconds = times.Reduce
	stats.TotalSeconds = times.Total

	stats.WallMapSeconds = mapped.Sub(began).Seconds()
	stage := reduced.Sub(reduceBegan).Seconds()
	var gathering, reducing time.Duration
	for p := range gatherTime {
		gathering += gatherTime[p]
		reducing += reduceTime[p]
	}
	if busy := gathering + reducing; busy > 0 {
		stats.WallShuffleSeconds = stage * gathering.Seconds() / busy.Seconds()
	}
	stats.WallReduceSeconds = stage - stats.WallShuffleSeconds
	stats.WallSeconds = time.Since(began).Seconds()
	return striped, stats, nil
}

// gather fills s.in with reduce partition p, the concatenation of every
// map task's run for it, releasing each run as it is copied, and merges
// the runs into one sorted batch.
func gather(s *slot, maps []*mapTask, p int) {
	var n int
	var size int64
	for _, m := range maps {
		n += m.parts[p].Len()
		size += m.parts[p].Bytes()
	}
	s.in.Grow(n, size)
	s.ends = s.ends[:0]
	for _, m := range maps {
		s.in.AppendBatch(&m.parts[p])
		m.parts[p] = mrfs.Batch{}
		s.ends = append(s.ends, s.in.Len())
	}
	s.in.MergeRuns(s.ends, &s.scratch)
}

// restripe spreads a job's reduce output across partitions, modelling
// block placement in the distributed file system: a downstream job's map
// splits follow file blocks, not the key grouping of the reducers that
// wrote them. Without this, one reducer's key-locality would skew the next
// job's map tasks — a locality real MapReduce inputs do not have. Record i
// of the output, counted in partition order, lands in partition i mod n;
// every destination gathers its records slab to slab into an exactly sized
// batch, all destinations in parallel.
func restripe(name string, out []mrfs.Batch) *mrfs.Dataset {
	n := len(out)
	striped := mrfs.NewDataset(name, n)
	_ = parallelFor(n, workers(n), func(q, _ int) error { // copying cannot fail: there is no error to lose
		dst := striped.Partition(q)
		// each walks the records bound for q: in source p, whose first
		// record is number start of the output, every n-th from the first i
		// with (start+i) mod n == q.
		each := func(visit func(src *mrfs.Batch, i int)) {
			start := 0
			for p := range out {
				src := &out[p]
				for i := ((q-start)%n + n) % n; i < src.Len(); i += n {
					visit(src, i)
				}
				start += src.Len()
			}
		}
		var recs int
		var size int64
		each(func(src *mrfs.Batch, i int) { recs++; size += src.Size(i) })
		dst.Grow(recs, size)
		each(dst.AppendFrom)
		return nil
	})
	return striped
}

// groupReducer walks a sorted record stream, slicing it into per-key
// groups and invoking a reduce function (the job's reducer, or its
// dedicated combiner) on each through one reused Values window.
type groupReducer struct {
	ctx   *TaskContext
	job   *Job
	fn    Reducer
	stage string // "reduce" or "combiner", for errors
	em    batchEmitter
	// cm is set for the reduce stage only: the scheduler deadline is
	// checked between groups so a runaway reduce task is killed mid-flight.
	cm CostModel

	vals               Values
	inRecords, inBytes int64       // consumed from the stream so far
	group              *mrfs.Batch // stream mode: the current group, copied out of the merge
}

// batch reduces every key group of a sorted batch; the Values are windows
// on the batch itself.
func (g *groupReducer) batch(b *mrfs.Batch) error {
	for lo, hi := 0, 0; lo < b.Len(); lo = hi {
		size := b.Size(lo)
		for hi = lo + 1; hi < b.Len() && b.SameKey(lo, hi); hi++ {
			size += b.Size(hi)
		}
		if err := g.reduce(b, lo, hi, size); err != nil {
			return err
		}
	}
	return nil
}

// reduce folds the key group [lo, hi) of b, size encoded bytes long.
func (g *groupReducer) reduce(b *mrfs.Batch, lo, hi int, size int64) error {
	g.inRecords += int64(hi - lo)
	g.inBytes += size
	g.vals = Values{b: b, lo: lo, hi: hi, pos: lo, bytes: size}
	err := g.fn.Reduce(g.ctx, b.Key(lo), &g.vals, &g.em)
	if err == nil {
		err = g.em.err
	}
	if err != nil {
		return fmt.Errorf("mr: job %q %s: %w", g.job.Name, g.stage, err)
	}
	g.ctx.extraIO += size * int64(g.vals.rewinds)
	if cm := g.cm; cm.MaxTaskSeconds > 0 {
		running := cm.TaskOverhead +
			float64(g.inRecords+int64(g.em.out.Len())+g.ctx.extraCPU)*cm.CPUPerRecord +
			float64(g.em.out.Bytes())*cm.IOPerByte +
			float64(g.ctx.extraIO)*cm.IOPerByte
		if running > cm.MaxTaskSeconds {
			return fmt.Errorf("mr: job %q: reduce task %d ran %.0fs (deadline %.0fs): %w",
				g.job.Name, g.ctx.TaskIndex, running, cm.MaxTaskSeconds, ErrTaskKilled)
		}
	}
	return nil
}

// workers is the size of parallelFor's pool for n tasks: GOMAXPROCS, but
// no more than n and at least 1.
func workers(n int) int { return max(1, min(n, runtime.GOMAXPROCS(0))) }

// parallelFor runs f(0..n-1) on a pool of w worker goroutines, returning
// the first error (by lowest index, for determinism). Tasks start in index
// order; f's second argument is the worker in [0, w) that runs the task,
// so a caller can give each worker buffers of its own.
func parallelFor(n, w int, f func(i, worker int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for worker := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i, worker)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
