// Package mr is a deterministic in-process MapReduce engine with a cluster
// cost model. Jobs really execute — mappers, dedicated combiners, a
// hash-partitioned shuffle with (key, secondary-key) sorting, and reducers
// over grouped value lists — while the engine accounts the simulated
// wall-clock a shared-nothing cluster of W machines would have spent:
// per-task CPU and I/O, shuffle bytes, side-input loads, slowest-machine
// makespans, per-machine memory budgets, and scheduler kill deadlines.
//
// The programming model follows the paper's §2: map:
// ⟨key1,value1⟩ → (⟨key2,value2⟩)*, reduce: ⟨key2,(value2)*⟩ → (value3)*,
// optional secondary keys (Google MR only), dedicated combiners, side-input
// loading at map-stage start, and rewindable reduce value lists.
//
// Records have one in-memory form from a job's input to its output: the
// mrfs.Batch, an append-only byte slab plus a pointer-free index. Dataset
// partitions, each map task's per-reducer output, the shuffled reduce
// input and the reduce output are all batches; the shuffle sorts index
// entries, never records, and the spill path writes its runs straight from
// a sorted index and merges them back through reused buffers, so the
// in-memory and spilled shuffles share the representation. What user code
// sees are views — the view contract, stated once: the rec handed to Map,
// the key handed to Reduce and every Value a Values yields are read-only
// windows on engine storage, valid until the call returns. Emitters copy
// what they are given, so a function may emit a view, or bytes encoded in
// TaskContext.Scratch, and reuse the buffer at once; what it wants to keep
// beyond the call it must copy.
package mr

import (
	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/mrfs"
)

// Emitter receives the output tuples of a map or reduce function.
type Emitter interface {
	// Emit outputs a ⟨key, value⟩ tuple. Byte slices are copied.
	Emit(key, val []byte)
	// EmitSec outputs a ⟨key, secondary-key, value⟩ tuple. The shuffle
	// delivers each reducer's value list sorted by the secondary key.
	EmitSec(key, sec, val []byte)
}

// Mapper transforms one input record into zero or more output tuples. Map
// functions must be pure and deterministic (the fault-tolerance contract).
// rec is a view (see the package doc): read-only, valid until Map returns.
type Mapper interface {
	Map(ctx *TaskContext, rec mrfs.Record, emit Emitter) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(ctx *TaskContext, rec mrfs.Record, emit Emitter) error

// Map implements Mapper.
func (f MapperFunc) Map(ctx *TaskContext, rec mrfs.Record, emit Emitter) error {
	return f(ctx, rec, emit)
}

// Reducer folds the value list of one key into zero or more outputs.
// The same interface serves dedicated combiners. key, values and every
// Value are views (see the package doc): read-only, valid until Reduce
// returns.
type Reducer interface {
	Reduce(ctx *TaskContext, key []byte, values *Values, emit Emitter) error
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(ctx *TaskContext, key []byte, values *Values, emit Emitter) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(ctx *TaskContext, key []byte, values *Values, emit Emitter) error {
	return f(ctx, key, values, emit)
}

// Setupper is an optional Mapper extension: Setup runs once per map
// stage, on a context of its own, after side inputs are loaded and before
// any map task starts. Mappers use it to build read-only lookup tables
// from side inputs.
type Setupper interface {
	Setup(ctx *TaskContext) error
}

// Value is one entry of a reduce value list: two views, valid until the
// Reduce call that obtained them returns.
type Value struct {
	Sec []byte // secondary key (empty unless EmitSec was used)
	Val []byte
}

// Values iterates a reduce value list: a window on one key group of a
// sorted batch. It supports Rewind, the capability the chunked Similarity1
// reducer relies on; every rewind re-charges the list's I/O cost,
// modelling the re-scan of spilled data. The engine reuses one Values per
// task, so it must not be retained past the Reduce call.
type Values struct {
	b       *mrfs.Batch
	lo, hi  int // the group is records [lo, hi) of b
	pos     int
	bytes   int64 // encoded size of the list
	rewinds int   // accounted by the engine
}

// Next returns the next value, or ok=false at the end of the list.
func (v *Values) Next() (Value, bool) {
	if v.pos >= v.hi {
		return Value{}, false
	}
	r := v.b.Record(v.pos)
	v.pos++
	return Value{Sec: r.Sec, Val: r.Val}, true
}

// Rewind restarts iteration from the beginning of the list. The simulated
// cost of re-reading the list is charged to the task.
func (v *Values) Rewind() {
	v.pos = v.lo
	v.rewinds++
}

// Len reports the number of values in the list.
func (v *Values) Len() int { return v.hi - v.lo }

// Bytes reports the encoded size of the list.
func (v *Values) Bytes() int64 { return v.bytes }

// TaskContext carries per-task state: the memory accountant, counters,
// scratch encode buffers, and side inputs. A fresh context is created for
// every task.
type TaskContext struct {
	// JobName identifies the running job.
	JobName string
	// TaskIndex is the map or reduce task number.
	TaskIndex int
	// Counters collects this task's counter increments; the engine folds
	// them into the job's totals (JobStats.Counters) when the task ends, so
	// tasks never contend on a counter. The set takes no lock: a function
	// that counts from goroutines of its own must serialize them.
	Counters *Counters
	// Side holds the side-input datasets declared by the job, keyed by
	// name, in map tasks and map setup (nil in reduce tasks). Loading
	// cost and memory are charged automatically.
	Side map[string]*mrfs.Dataset

	memBudget int64
	memUsed   int64
	extraIO   int64 // bytes re-read due to Rewind etc.
	extraCPU  int64 // record-equivalents of in-task compute (ChargeCompute)

	scratchKey, scratchVal codec.Buffer
}

// Scratch returns the task's two reusable encode buffers, emptied: one for
// a tuple's key, one for its value. Emitters copy, so a function encodes
// into them, emits their Bytes, and asks again for the next tuple without
// allocating. Each call invalidates the bytes of the previous one.
func (c *TaskContext) Scratch() (key, val *codec.Buffer) {
	c.scratchKey.Reset()
	c.scratchVal.Reset()
	return &c.scratchKey, &c.scratchVal
}

// Reserve accounts bytes of task-local memory (lookup tables, buffered
// value lists). It fails with ErrOutOfMemory when the per-machine budget
// would be exceeded — the simulation of thrashing/OOM.
func (c *TaskContext) Reserve(bytes int64) error {
	if c.memUsed+bytes > c.memBudget {
		return ErrOutOfMemory
	}
	c.memUsed += bytes
	return nil
}

// Release returns bytes reserved earlier.
func (c *TaskContext) Release(bytes int64) {
	c.memUsed -= bytes
	if c.memUsed < 0 {
		c.memUsed = 0
	}
}

// MemBudget reports the per-machine memory budget.
func (c *TaskContext) MemBudget() int64 { return c.memBudget }

// ChargeCompute adds in-task CPU work equivalent to processing n records —
// for work the engine cannot see from record counts alone, such as the
// pairwise similarity computations inside the VCL kernel reducer.
func (c *TaskContext) ChargeCompute(n int64) { c.extraCPU += n }

// IdentityMapper passes records through unchanged — the paper's
// mapSimilarity2.
type IdentityMapper struct{}

// Map implements Mapper.
func (IdentityMapper) Map(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
	if len(rec.Sec) > 0 {
		emit.EmitSec(rec.Key, rec.Sec, rec.Val)
	} else {
		emit.Emit(rec.Key, rec.Val)
	}
	return nil
}
