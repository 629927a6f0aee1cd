package mr

import (
	"fmt"
	"testing"

	"vsmartjoin/internal/mrfs"
)

// spillCluster returns a cluster whose map tasks may buffer at most cap
// shuffle bytes in memory.
func spillCluster(machines int, cap int64) ClusterConfig {
	cl := testCluster(machines)
	cl.ShuffleBufferBytes = cap
	return cl
}

// bigWordInput generates enough lines that a small spill cap forces many
// spill rounds in every map task.
func bigWordInput(parts, lines int) *mrfs.Dataset {
	recs := make([]mrfs.Record, lines)
	for i := range recs {
		recs[i] = mrfs.Record{
			Key: []byte(fmt.Sprintf("line%d", i)),
			Val: []byte(fmt.Sprintf("w%d w%d w%d w%d", i%13, i%7, i%29, i%3)),
		}
	}
	return dataset("lines", recs, parts)
}

// runSorted executes the job and returns the output in deterministic
// (Key, Sec, Val) order.
func runSorted(t *testing.T, cl ClusterConfig, job Job) ([]mrfs.Record, JobStats) {
	t.Helper()
	out, stats, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	return out.Sorted(), stats
}

func assertSameRecords(t *testing.T, got, want []mrfs.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if mrfs.Less(got[i], want[i]) || mrfs.Less(want[i], got[i]) {
			t.Fatalf("record %d differs: got %q/%q/%q want %q/%q/%q", i,
				got[i].Key, got[i].Sec, got[i].Val, want[i].Key, want[i].Sec, want[i].Val)
		}
	}
}

// TestSpillMatchesInMemory asserts that forcing the shuffle to spill
// produces exactly the records of the all-in-memory run, and that the
// spill really happened and was charged.
func TestSpillMatchesInMemory(t *testing.T) {
	job := Job{
		Name:    "wordcount",
		Input:   bigWordInput(4, 600),
		Mapper:  wordCountMapper,
		Reducer: sumReducer,
	}
	mem, memStats := runSorted(t, testCluster(4), job)
	if memStats.Spills != 0 || memStats.SpilledBytes != 0 {
		t.Fatalf("in-memory run spilled: %d rounds, %d bytes", memStats.Spills, memStats.SpilledBytes)
	}
	spill, spillStats := runSorted(t, spillCluster(4, 256), job)
	if spillStats.Spills == 0 || spillStats.SpilledBytes == 0 {
		t.Fatalf("capped run did not spill: %+v", spillStats)
	}
	assertSameRecords(t, spill, mem)
	if spillStats.ReduceOutRecs != memStats.ReduceOutRecs {
		t.Fatalf("reduce out: %d vs %d", spillStats.ReduceOutRecs, memStats.ReduceOutRecs)
	}
}

// TestSpillWithCombiner exercises the spill path's per-run combining: the
// reducer still sees every partial sum and totals must match.
func TestSpillWithCombiner(t *testing.T) {
	job := Job{
		Name:     "wordcount-combined",
		Input:    bigWordInput(3, 400),
		Mapper:   wordCountMapper,
		Combiner: sumReducer,
		Reducer:  sumReducer,
	}
	mem, _ := runSorted(t, testCluster(3), job)
	spill, stats := runSorted(t, spillCluster(3, 128), job)
	if stats.Spills == 0 {
		t.Fatal("no spill happened")
	}
	assertSameRecords(t, spill, mem)
	// Per-spill combining must still shrink the shuffle below the raw
	// mapper output.
	if stats.CombineOutRecs >= stats.MapOutRecords {
		t.Fatalf("combiner ineffective: %d combined vs %d mapped", stats.CombineOutRecs, stats.MapOutRecords)
	}
}

// TestSpillSecondaryKeys asserts the merge preserves secondary-key order
// for reducers that depend on it.
func TestSpillSecondaryKeys(t *testing.T) {
	recs := make([]mrfs.Record, 300)
	for i := range recs {
		recs[i] = mrfs.Record{Key: []byte(fmt.Sprintf("r%d", i)), Val: []byte("x")}
	}
	input := dataset("in", recs, 3)
	mapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		// Reverse-ish secondary keys so sortedness comes from the shuffle,
		// not emission order.
		emit.EmitSec([]byte("g"), []byte(fmt.Sprintf("s%09d", 300-len(rec.Key)-int(rec.Key[1]))), rec.Key)
		return nil
	})
	reducer := ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
		prev := ""
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			if s := string(v.Sec); s < prev {
				return fmt.Errorf("secondary keys out of order: %q after %q", s, prev)
			} else {
				prev = s
			}
		}
		emit.Emit(key, []byte("ok"))
		return nil
	})
	job := Job{Name: "secsort", Input: input, Mapper: mapper, Reducer: reducer, UsesSecondaryKeys: true}
	mem, _ := runSorted(t, testCluster(3), job)
	spill, stats := runSorted(t, spillCluster(3, 64), job)
	if stats.Spills == 0 {
		t.Fatal("no spill happened")
	}
	assertSameRecords(t, spill, mem)
}

// TestSpillCompaction forces far more spill runs per partition than the
// merge fan-in cap, so the reduce stage must pre-merge segments into
// intermediate runs — and the output must still match the in-memory run.
func TestSpillCompaction(t *testing.T) {
	job := Job{
		Name:    "wordcount",
		Input:   bigWordInput(1, 2500), // one map task: all runs land in the same task's run list
		Mapper:  wordCountMapper,
		Reducer: sumReducer,
	}
	mem, _ := runSorted(t, testCluster(2), job)
	spill, stats := runSorted(t, spillCluster(2, 64), job)
	if stats.Spills <= maxMergeFanIn {
		t.Fatalf("want > %d spill rounds to exercise compaction, got %d", maxMergeFanIn, stats.Spills)
	}
	assertSameRecords(t, spill, mem)
}

// TestSpillCostAccounting asserts spilled bytes are charged to task I/O on
// both sides of the shuffle, so a spilling run simulates slower than the
// in-memory run of the same job.
func TestSpillCostAccounting(t *testing.T) {
	job := Job{
		Name:    "wordcount",
		Input:   bigWordInput(4, 600),
		Mapper:  wordCountMapper,
		Reducer: sumReducer,
	}
	_, memStats := runSorted(t, testCluster(4), job)
	_, spillStats := runSorted(t, spillCluster(4, 256), job)

	var mapSpill, reduceSpill int64
	for _, io := range spillStats.Profile.MapTasks {
		mapSpill += io.SpillIO
	}
	for _, io := range spillStats.Profile.ReduceTasks {
		reduceSpill += io.SpillIO
	}
	if mapSpill != spillStats.SpilledBytes {
		t.Fatalf("map SpillIO %d != SpilledBytes %d", mapSpill, spillStats.SpilledBytes)
	}
	// Every spilled byte is read back at least once; run compaction may
	// re-read and re-write on top.
	if reduceSpill < spillStats.SpilledBytes {
		t.Fatalf("reduce SpillIO %d (read back) < SpilledBytes %d (written)", reduceSpill, spillStats.SpilledBytes)
	}
	if spillStats.TotalSeconds <= memStats.TotalSeconds {
		t.Fatalf("spilling should cost simulated time: %v <= %v", spillStats.TotalSeconds, memStats.TotalSeconds)
	}
}

// TestSpillValidation rejects a negative cap.
func TestSpillValidation(t *testing.T) {
	cl := spillCluster(2, -1)
	_, _, err := Run(cl, Job{Name: "bad", Input: bigWordInput(1, 2), Mapper: wordCountMapper, Reducer: sumReducer})
	if err == nil {
		t.Fatal("negative ShuffleBufferBytes accepted")
	}
}

// TestSpillDeterministic runs the spilling engine repeatedly and asserts
// byte-identical output and identical cost accounting.
func TestSpillDeterministic(t *testing.T) {
	job := Job{
		Name:     "wordcount",
		Input:    bigWordInput(4, 500),
		Mapper:   wordCountMapper,
		Combiner: sumReducer,
		Reducer:  sumReducer,
	}
	first, firstStats := runSorted(t, spillCluster(4, 200), job)
	for run := 1; run < 3; run++ {
		got, stats := runSorted(t, spillCluster(4, 200), job)
		assertSameRecords(t, got, first)
		if stats.TotalSeconds != firstStats.TotalSeconds {
			t.Fatalf("run %d: simulated time differs: %v vs %v", run, stats.TotalSeconds, firstStats.TotalSeconds)
		}
		if stats.SpilledBytes != firstStats.SpilledBytes || stats.Spills != firstStats.Spills {
			t.Fatalf("run %d: spill accounting differs", run)
		}
	}
}
