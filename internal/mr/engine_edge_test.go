package mr

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vsmartjoin/internal/mrfs"
)

func TestEmptyInputProducesEmptyOutput(t *testing.T) {
	out, stats, err := Run(testCluster(2), Job{
		Name:    "empty",
		Input:   mrfs.NewDataset("empty", 3),
		Mapper:  wordCountMapper,
		Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRecords() != 0 {
		t.Fatalf("records: %d", out.NumRecords())
	}
	if stats.TotalSeconds <= 0 {
		t.Fatal("even empty jobs pay startup")
	}
}

func TestMapperEmittingNothing(t *testing.T) {
	mapper := MapperFunc(func(_ *TaskContext, _ mrfs.Record, _ Emitter) error { return nil })
	out, _, err := Run(testCluster(2), Job{
		Name: "silent", Input: wordCountInput(2, "a b c"), Mapper: mapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRecords() != 0 {
		t.Fatalf("records: %d", out.NumRecords())
	}
}

func TestCombinerMayChangeKey(t *testing.T) {
	// A combiner that rewrites keys must still produce correct grouping:
	// the engine re-partitions combiner output.
	mapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		emit.Emit([]byte("temp"), rec.Val)
		return nil
	})
	combiner := ReducerFunc(func(_ *TaskContext, _ []byte, values *Values, emit Emitter) error {
		n := 0
		for {
			if _, ok := values.Next(); !ok {
				break
			}
			n++
		}
		emit.Emit([]byte("final"), []byte(fmt.Sprintf("%d", n)))
		return nil
	})
	reducer := ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
		total := 0
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			var n int
			fmt.Sscanf(string(v.Val), "%d", &n)
			total += n
		}
		emit.Emit(key, []byte(fmt.Sprintf("%d", total)))
		return nil
	})
	out, _, err := Run(testCluster(3), Job{
		Name: "rekey", Input: wordCountInput(4, "a", "b", "c", "d", "e"),
		Mapper: mapper, Combiner: combiner, Reducer: reducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := out.Sorted()
	if len(recs) != 1 || string(recs[0].Key) != "final" || string(recs[0].Val) != "5" {
		t.Fatalf("rekeyed combine wrong: %v", recs)
	}
}

func TestSingleReducer(t *testing.T) {
	out, _, err := Run(testCluster(4), Job{
		Name: "r1", Input: wordCountInput(4, "a b", "c d", "e f"),
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumPartitions() != 1 || out.NumRecords() != 6 {
		t.Fatalf("single reducer: %d parts %d recs", out.NumPartitions(), out.NumRecords())
	}
}

func TestOutputRestriping(t *testing.T) {
	// Reduce output must be striped across partitions (block placement),
	// not key-grouped: a single hot key's records must not all land in one
	// output partition... they are single records here, so instead check
	// that partitions are balanced when one reducer produces everything.
	mapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		emit.Emit([]byte("k"), rec.Val) // all records to one reducer
		return nil
	})
	reducer := ReducerFunc(func(_ *TaskContext, _ []byte, values *Values, emit Emitter) error {
		i := 0
		for {
			if _, ok := values.Next(); !ok {
				break
			}
			emit.Emit([]byte(fmt.Sprintf("out-%d", i)), nil)
			i++
		}
		return nil
	})
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = "x"
	}
	out, _, err := Run(testCluster(4), Job{
		Name: "stripe", Input: wordCountInput(4, lines...), Mapper: mapper, Reducer: reducer, NumReducers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < out.NumPartitions(); p++ {
		part := out.Partition(p)
		if n := part.Len(); n != 10 {
			t.Fatalf("partition %d has %d records, want 10 (striping broken)", p, n)
		}
		// One reducer wrote everything, so output record i is "out-i": it
		// must sit in partition i mod 4, in output order.
		for j := 0; j < part.Len(); j++ {
			if got, want := string(part.Key(j)), fmt.Sprintf("out-%d", j*4+p); got != want {
				t.Fatalf("partition %d slot %d holds %s, want %s", p, j, got, want)
			}
		}
	}
}

// TestWideRecordsThroughEveryStage drives fields far wider than 16 bits of
// length — a 70 KiB key, a 70 KiB secondary key, a 5 MiB value — through
// map, combine, shuffle and reduce, in memory and spilled: no stage may
// truncate or wrap a length.
func TestWideRecordsThroughEveryStage(t *testing.T) {
	wideKey := bytes.Repeat([]byte("K"), 70<<10)
	wideSec := bytes.Repeat([]byte("S"), 70<<10)
	wideVal := bytes.Repeat([]byte("V"), 5<<20)
	mapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		emit.EmitSec(wideKey, append(wideSec[:len(wideSec):len(wideSec)], rec.Key...), wideVal)
		emit.EmitSec(wideKey, rec.Key, rec.Val)
		return nil
	})
	// Combiner and reducer pass every value through, so each wide field
	// crosses every stage as key, secondary key and value.
	pass := ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
		for {
			v, ok := values.Next()
			if !ok {
				return nil
			}
			emit.EmitSec(key, v.Sec, v.Val)
		}
	})
	for _, cl := range []ClusterConfig{testCluster(2), spillCluster(2, 1<<20)} {
		out, stats, err := Run(cl, Job{
			Name: "wide", Input: wordCountInput(2, "a", "b", "c"), Mapper: mapper,
			Combiner: pass, Reducer: pass, UsesSecondaryKeys: true,
		})
		if err != nil {
			t.Fatalf("buffer %d: %v", cl.ShuffleBufferBytes, err)
		}
		if (stats.Spills > 0) != (cl.ShuffleBufferBytes > 0) {
			t.Fatalf("buffer %d: %d spills", cl.ShuffleBufferBytes, stats.Spills)
		}
		recs := out.Sorted()
		if len(recs) != 6 {
			t.Fatalf("buffer %d: %d records, want 6", cl.ShuffleBufferBytes, len(recs))
		}
		for i, r := range recs {
			if !bytes.Equal(r.Key, wideKey) {
				t.Fatalf("buffer %d: record %d key is %d bytes", cl.ShuffleBufferBytes, i, len(r.Key))
			}
			// The wide secondary keys ("SSS…") sort before "line0".."line2".
			if wide := i < 3; wide != (bytes.HasPrefix(r.Sec, wideSec) && bytes.Equal(r.Val, wideVal)) {
				t.Fatalf("buffer %d: record %d is %d/%d/%d bytes", cl.ShuffleBufferBytes, i, len(r.Key), len(r.Sec), len(r.Val))
			}
		}
	}
}

func TestReduceDeadlineKillMidTask(t *testing.T) {
	// A reducer that emits quadratically must be killed between groups.
	mapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		emit.Emit(rec.Key, rec.Val)
		return nil
	})
	reducer := ReducerFunc(func(_ *TaskContext, key []byte, _ *Values, emit Emitter) error {
		for i := 0; i < 5000; i++ {
			emit.Emit(key, []byte(strings.Repeat("x", 64)))
		}
		return nil
	})
	cl := testCluster(1)
	cl.Cost.MaxTaskSeconds = 0.5
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = fmt.Sprintf("line-%d", i)
	}
	_, _, err := Run(cl, Job{Name: "boom", Input: wordCountInput(4, lines...), Mapper: mapper, Reducer: reducer, NumReducers: 2})
	if !errors.Is(err, ErrTaskKilled) {
		t.Fatalf("want ErrTaskKilled, got %v", err)
	}
}

func TestMapDeadlineKillMidTask(t *testing.T) {
	mapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		for i := 0; i < 2000; i++ {
			emit.Emit(rec.Key, []byte(strings.Repeat("y", 64)))
		}
		return nil
	})
	cl := testCluster(1)
	cl.Cost.MaxTaskSeconds = 0.5
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = "z"
	}
	_, _, err := Run(cl, Job{Name: "boom", Input: wordCountInput(2, lines...), Mapper: mapper, Reducer: sumReducer})
	if !errors.Is(err, ErrTaskKilled) {
		t.Fatalf("want ErrTaskKilled, got %v", err)
	}
}

func TestCostProfileReEvaluation(t *testing.T) {
	_, stats, err := Run(testCluster(4), Job{
		Name: "prof", Input: wordCountInput(8, "a b c", "d e f", "a d", "b e"),
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	t500 := stats.Profile.Evaluate(500, cm)
	t1 := stats.Profile.Evaluate(1, cm)
	if t1.Total <= t500.Total {
		t.Fatalf("1 machine should be slower: %v vs %v", t1.Total, t500.Total)
	}
	// Consistency: Run's own stats equal Evaluate at the cluster size.
	tOwn := stats.Profile.Evaluate(4, cm)
	if tOwn.Total != stats.TotalSeconds {
		t.Fatalf("profile inconsistent with stats: %v vs %v", tOwn.Total, stats.TotalSeconds)
	}
	// Re-pricing with a different model changes the number.
	cm2 := cm
	cm2.CPUPerRecord *= 10
	if stats.Profile.Evaluate(4, cm2).Total <= tOwn.Total {
		t.Fatal("re-pricing had no effect")
	}
}

func TestTaskIOCost(t *testing.T) {
	cm := CostModel{TaskOverhead: 1, CPUPerRecord: 2, IOPerByte: 3}
	io := TaskIO{InRecords: 1, OutRecords: 2, InBytes: 4, OutBytes: 5, ExtraIO: 6, ExtraCPU: 7, CombineRecords: 8}
	want := 1 + float64(4+5+6)*3 + float64(1+2+7+8)*2
	if got := io.Cost(cm); got != want {
		t.Fatalf("cost: %v want %v", got, want)
	}
}

func TestValuesBytesAndLen(t *testing.T) {
	in := wordCountInput(1, "k k k")
	reducer := ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
		if values.Len() != 3 {
			t.Errorf("Len: %d", values.Len())
		}
		if values.Bytes() <= 0 {
			t.Errorf("Bytes: %d", values.Bytes())
		}
		emit.Emit(key, nil)
		return nil
	})
	if _, _, err := Run(testCluster(1), Job{Name: "v", Input: in, Mapper: wordCountMapper, Reducer: reducer}); err != nil {
		t.Fatal(err)
	}
}
