package mr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vsmartjoin/internal/mrfs"
)

func testCluster(machines int) ClusterConfig {
	return NewCluster(machines, 1<<20)
}

// wordCountInput builds a dataset of lines.
func wordCountInput(parts int, lines ...string) *mrfs.Dataset {
	recs := make([]mrfs.Record, len(lines))
	for i, l := range lines {
		recs[i] = mrfs.Record{Key: []byte(fmt.Sprintf("line%d", i)), Val: []byte(l)}
	}
	return dataset("lines", recs, parts)
}

// dataset stripes recs over parts partitions.
func dataset(name string, recs []mrfs.Record, parts int) *mrfs.Dataset {
	d, err := mrfs.FromRecords(name, recs, parts)
	if err != nil {
		panic(err)
	}
	return d
}

var wordCountMapper = MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
	for _, w := range strings.Fields(string(rec.Val)) {
		emit.Emit([]byte(w), []byte("1"))
	}
	return nil
})

var sumReducer = ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
	total := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.Atoi(string(v.Val))
		if err != nil {
			return err
		}
		total += n
	}
	emit.Emit(key, []byte(strconv.Itoa(total)))
	return nil
})

func runWordCount(t *testing.T, combiner Reducer, machines int) map[string]int {
	t.Helper()
	out, _, err := Run(testCluster(machines), Job{
		Name:     "wordcount",
		Input:    wordCountInput(3, "a b a", "c a b", "c c c c"),
		Mapper:   wordCountMapper,
		Combiner: combiner,
		Reducer:  sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, r := range out.Sorted() {
		n, _ := strconv.Atoi(string(r.Val))
		got[string(r.Key)] = n
	}
	return got
}

func TestWordCount(t *testing.T) {
	got := runWordCount(t, nil, 4)
	want := map[string]int{"a": 3, "b": 2, "c": 5}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("word %q: got %d want %d (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("extra words: %v", got)
	}
}

func TestCombinerDoesNotChangeResult(t *testing.T) {
	plain := runWordCount(t, nil, 4)
	combined := runWordCount(t, sumReducer, 4)
	if len(plain) != len(combined) {
		t.Fatalf("combiner changed result: %v vs %v", plain, combined)
	}
	for k, v := range plain {
		if combined[k] != v {
			t.Fatalf("combiner changed %q: %d vs %d", k, combined[k], v)
		}
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = "x x x x x x x x"
	}
	in := wordCountInput(2, lines...)
	_, s1, err := Run(testCluster(4), Job{Name: "nc", Input: in, Mapper: wordCountMapper, Reducer: sumReducer})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Run(testCluster(4), Job{Name: "wc", Input: in, Mapper: wordCountMapper, Combiner: sumReducer, Reducer: sumReducer})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ShuffleBytes >= s1.ShuffleBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d", s2.ShuffleBytes, s1.ShuffleBytes)
	}
	if s2.CombineOutRecs >= s1.MapOutRecords {
		t.Fatalf("combiner did not shrink records: %d vs %d", s2.CombineOutRecs, s1.MapOutRecords)
	}
}

func TestDeterministicOutputAcrossRuns(t *testing.T) {
	var prev string
	for i := 0; i < 3; i++ {
		out, _, err := Run(testCluster(5), Job{
			Name:    "det",
			Input:   wordCountInput(4, "q w e r t y", "a s d f g h", "z x c v b n", "q a z w s x"),
			Mapper:  wordCountMapper,
			Reducer: sumReducer,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range out.Sorted() {
			fmt.Fprintf(&sb, "%s=%s;", r.Key, r.Val)
		}
		if i > 0 && sb.String() != prev {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, sb.String(), prev)
		}
		prev = sb.String()
	}
}

func TestSecondaryKeyOrdering(t *testing.T) {
	// Emit values with secondary keys 2,0,1 and check the reducer sees
	// them sorted 0,1,2.
	in := wordCountInput(1, "only")
	mapper := MapperFunc(func(_ *TaskContext, _ mrfs.Record, emit Emitter) error {
		emit.EmitSec([]byte("k"), []byte{2}, []byte("two"))
		emit.EmitSec([]byte("k"), []byte{0}, []byte("zero"))
		emit.EmitSec([]byte("k"), []byte{1}, []byte("one"))
		return nil
	})
	var seen []string
	reducer := ReducerFunc(func(_ *TaskContext, _ []byte, values *Values, emit Emitter) error {
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			seen = append(seen, string(v.Val))
		}
		emit.Emit([]byte("k"), []byte("done"))
		return nil
	})
	_, _, err := Run(testCluster(1), Job{
		Name: "sec", Input: in, Mapper: mapper, Reducer: reducer, UsesSecondaryKeys: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"zero", "one", "two"}
	if strings.Join(seen, ",") != strings.Join(want, ",") {
		t.Fatalf("secondary order: got %v want %v", seen, want)
	}
}

func TestHadoopRejectsSecondaryKeys(t *testing.T) {
	_, _, err := Run(testCluster(2).Hadoop(), Job{
		Name:              "sec",
		Input:             wordCountInput(1, "x"),
		Mapper:            wordCountMapper,
		Reducer:           sumReducer,
		UsesSecondaryKeys: true,
	})
	if !errors.Is(err, ErrSecondaryKeys) {
		t.Fatalf("want ErrSecondaryKeys, got %v", err)
	}
	// Without the declaration the same job runs fine on Hadoop mode.
	_, _, err = Run(testCluster(2).Hadoop(), Job{
		Name: "nosec", Input: wordCountInput(1, "x"), Mapper: wordCountMapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupingOneReducerCallPerKey(t *testing.T) {
	in := wordCountInput(4, "a b", "a c", "b c", "a a a")
	calls := NewCounters()
	reducer := ReducerFunc(func(ctx *TaskContext, key []byte, values *Values, emit Emitter) error {
		ctx.Counters.Inc("calls:" + string(key))
		return sumReducer(ctx, key, values, emit)
	})
	_, stats, err := Run(testCluster(3), Job{Name: "g", Input: in, Mapper: wordCountMapper, Reducer: reducer})
	if err != nil {
		t.Fatal(err)
	}
	_ = calls
	for _, k := range []string{"a", "b", "c"} {
		if stats.Counters["calls:"+k] != 1 {
			t.Fatalf("key %q reduced %d times", k, stats.Counters["calls:"+k])
		}
	}
}

func TestOOMOnReserve(t *testing.T) {
	cl := NewCluster(2, 100) // tiny budget
	mapper := MapperFunc(func(ctx *TaskContext, rec mrfs.Record, emit Emitter) error {
		if err := ctx.Reserve(1000); err != nil {
			return err
		}
		return nil
	})
	_, _, err := Run(cl, Job{Name: "oom", Input: wordCountInput(1, "x"), Mapper: mapper, Reducer: sumReducer})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestOOMOnSideInputs(t *testing.T) {
	big := mrfs.NewDataset("table", 1)
	for i := 0; i < 100; i++ {
		big.Append(0, mrfs.Record{Key: []byte("key"), Val: make([]byte, 64)})
	}
	cl := NewCluster(2, 1000) // budget smaller than table
	_, _, err := Run(cl, Job{
		Name:       "side-oom",
		Input:      wordCountInput(1, "x"),
		Mapper:     wordCountMapper,
		Reducer:    sumReducer,
		SideInputs: map[string]*mrfs.Dataset{"table": big},
	})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestSideInputsAvailableInSetup(t *testing.T) {
	table := mrfs.NewDataset("table", 1)
	table.Append(0, mrfs.Record{Key: []byte("a"), Val: []byte("42")})
	type lookupMapper struct {
		MapperFunc
	}
	loaded := NewCounters()
	var m Mapper = &setupMapper{loaded: loaded}
	out, _, err := Run(testCluster(1), Job{
		Name:       "side",
		Input:      wordCountInput(1, "a"),
		Mapper:     m,
		Reducer:    sumReducer,
		SideInputs: map[string]*mrfs.Dataset{"table": table},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = lookupMapper{}
	if loaded.Get("setups") != 1 {
		t.Fatalf("setup ran %d times", loaded.Get("setups"))
	}
	recs := out.Sorted()
	if len(recs) != 1 || string(recs[0].Val) != "42" {
		t.Fatalf("lookup output wrong: %v", recs)
	}
}

type setupMapper struct {
	loaded *Counters
	table  map[string]string
}

func (m *setupMapper) Setup(ctx *TaskContext) error {
	m.loaded.Inc("setups")
	m.table = map[string]string{}
	for _, r := range ctx.Side["table"].All() {
		m.table[string(r.Key)] = string(r.Val)
	}
	return nil
}

func (m *setupMapper) Map(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
	for _, w := range strings.Fields(string(rec.Val)) {
		emit.Emit([]byte(w), []byte(m.table[w]))
	}
	return nil
}

func TestTaskDeadlineKill(t *testing.T) {
	cl := testCluster(1)
	cl.Cost.MaxTaskSeconds = 1e-9 // absurd deadline: everything gets killed
	_, _, err := Run(cl, Job{Name: "kill", Input: wordCountInput(1, "x"), Mapper: wordCountMapper, Reducer: sumReducer})
	if !errors.Is(err, ErrTaskKilled) {
		t.Fatalf("want ErrTaskKilled, got %v", err)
	}
}

func TestRewindChargesIO(t *testing.T) {
	in := wordCountInput(1, "k k k")
	reducer := ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
		for r := 0; r < 5; r++ {
			values.Rewind()
			for {
				if _, ok := values.Next(); !ok {
					break
				}
			}
		}
		emit.Emit(key, []byte("x"))
		return nil
	})
	_, withRewind, err := Run(testCluster(1), Job{Name: "rw", Input: in, Mapper: wordCountMapper, Reducer: reducer})
	if err != nil {
		t.Fatal(err)
	}
	_, plain, err := Run(testCluster(1), Job{Name: "rw0", Input: in, Mapper: wordCountMapper, Reducer: ReducerFunc(
		func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
			emit.Emit(key, []byte("x"))
			return nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	cm := testCluster(1).Cost
	if w, p := slowestReduceTask(withRewind, cm), slowestReduceTask(plain, cm); w <= p {
		t.Fatalf("rewinds should cost: %v vs %v", w, p)
	}
}

// slowestReduceTask prices a run's costliest reduce task under cm.
func slowestReduceTask(s JobStats, cm CostModel) float64 {
	return maxOf(taskCosts(s.Profile.ReduceTasks, cm))
}

func TestMoreMachinesReduceSimulatedTime(t *testing.T) {
	lines := make([]string, 64)
	for i := range lines {
		lines[i] = strings.Repeat(fmt.Sprintf("w%d ", i%17), 30)
	}
	in := wordCountInput(64, lines...)
	_, s2, err := Run(testCluster(2), Job{Name: "m2", Input: in, Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, s16, err := Run(testCluster(16), Job{Name: "m16", Input: in, Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s16.TotalSeconds >= s2.TotalSeconds {
		t.Fatalf("16 machines not faster: %.3f vs %.3f", s16.TotalSeconds, s2.TotalSeconds)
	}
}

func TestSkewedKeyBottlenecksOneReducer(t *testing.T) {
	// One giant key dominates: adding machines barely helps the reduce
	// makespan — the effect behind the paper's Similarity1 analysis.
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = strings.Repeat("hot ", 200)
	}
	in := wordCountInput(40, lines...)
	_, s4, err := Run(testCluster(4), Job{Name: "s4", Input: in, Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, s32, err := Run(testCluster(32), Job{Name: "s32", Input: in, Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 32})
	if err != nil {
		t.Fatal(err)
	}
	cm := testCluster(1).Cost
	if r32, r4 := slowestReduceTask(s32, cm), slowestReduceTask(s4, cm); r32 < r4*0.9 {
		t.Fatalf("skewed reduce should not parallelize: %.4f vs %.4f", r32, r4)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, _, err := Run(ClusterConfig{Machines: 0, MemPerMachine: 1}, Job{}); err == nil {
		t.Fatal("want machine validation error")
	}
	if _, _, err := Run(testCluster(1), Job{Name: "nomapper", Input: wordCountInput(1, "x")}); err == nil {
		t.Fatal("want no-mapper error")
	}
	if _, _, err := Run(testCluster(1), Job{Name: "noinput", Mapper: wordCountMapper, Reducer: sumReducer}); err == nil {
		t.Fatal("want no-input error")
	}
	if _, _, err := Run(testCluster(1), Job{Name: "noreducer", Input: wordCountInput(1, "x"), Mapper: wordCountMapper}); err == nil {
		t.Fatal("want no-reducer error")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	mapper := MapperFunc(func(_ *TaskContext, _ mrfs.Record, _ Emitter) error { return boom })
	_, _, err := Run(testCluster(1), Job{Name: "err", Input: wordCountInput(1, "x"), Mapper: mapper, Reducer: sumReducer})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	reducer := ReducerFunc(func(_ *TaskContext, _ []byte, _ *Values, _ Emitter) error { return boom })
	_, _, err := Run(testCluster(1), Job{Name: "err", Input: wordCountInput(1, "x"), Mapper: wordCountMapper, Reducer: reducer})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestCountersMergeAcrossTasks(t *testing.T) {
	mapper := MapperFunc(func(ctx *TaskContext, rec mrfs.Record, emit Emitter) error {
		ctx.Counters.Inc("records")
		emit.Emit(rec.Key, []byte("1"))
		return nil
	})
	_, stats, err := Run(testCluster(3), Job{
		Name: "cnt", Input: wordCountInput(5, "a", "b", "c", "d", "e", "f", "g"), Mapper: mapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["records"] != 7 {
		t.Fatalf("counter: got %d want 7", stats.Counters["records"])
	}
}

func TestCountersAPI(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("b", 5)
	if c.Get("a") != 1 || c.Get("b") != 5 || c.Get("zz") != 0 {
		t.Fatal("Get wrong")
	}
	d := NewCounters()
	d.Add("a", 2)
	c.Merge(d)
	if c.Get("a") != 3 {
		t.Fatal("Merge wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names: %v", names)
	}
}

func TestPipelineStats(t *testing.T) {
	var p PipelineStats
	p.Add(JobStats{Name: "j1", TotalSeconds: 2, Counters: map[string]int64{"x": 1}})
	p.Add(JobStats{Name: "j2", TotalSeconds: 3, Counters: map[string]int64{"x": 2}})
	if p.TotalSeconds != 5 {
		t.Fatalf("TotalSeconds: %v", p.TotalSeconds)
	}
	if got := p.Counter("x"); got != 3 {
		t.Fatalf("Counter: %d", got)
	}
	j, ok := p.Job("j2")
	if !ok || j.TotalSeconds != 3 {
		t.Fatal("Job lookup wrong")
	}
	if _, ok := p.Job("nope"); ok {
		t.Fatal("Job should miss")
	}
	var q PipelineStats
	q.Add(JobStats{Name: "j3", TotalSeconds: 1})
	p.Merge(q)
	if p.TotalSeconds != 6 || len(p.Jobs) != 3 {
		t.Fatal("Merge wrong")
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

// TestWallSplit: with an in-memory shuffle the reduce tasks gather and
// merge their partitions themselves, and the stage's wall time is split
// between shuffle and reduce by the tasks' own timings — each phase is
// measured, and the three never add up to more than the whole run.
func TestWallSplit(t *testing.T) {
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%d w%d w%d", i%97, i%31, i)
	}
	_, stats, err := Run(testCluster(4), Job{
		Name:    "wordcount",
		Input:   wordCountInput(8, lines...),
		Mapper:  wordCountMapper,
		Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleBytes == 0 {
		t.Fatal("empty shuffle")
	}
	if stats.WallMapSeconds <= 0 || stats.WallShuffleSeconds <= 0 || stats.WallReduceSeconds <= 0 {
		t.Fatalf("wall split map %g, shuffle %g, reduce %g s: want each > 0",
			stats.WallMapSeconds, stats.WallShuffleSeconds, stats.WallReduceSeconds)
	}
	if sum := stats.WallMapSeconds + stats.WallShuffleSeconds + stats.WallReduceSeconds; sum > stats.WallSeconds {
		t.Fatalf("phases sum to %g s, more than the run's %g s", sum, stats.WallSeconds)
	}
}

func TestAssignTasksGreedy(t *testing.T) {
	loads := assignTasks([]float64{5, 1, 1, 1, 1, 1}, 2)
	// greedy by index: 5→m0, then 1s→m1,m1,m1,m1,m1 → [5,5]
	if loads[0] != 5 || loads[1] != 5 {
		t.Fatalf("loads: %v", loads)
	}
	if m := maxOf(loads); m != 5 {
		t.Fatalf("maxOf: %v", m)
	}
}

func TestSideLoadIsFixedOverhead(t *testing.T) {
	table := mrfs.NewDataset("table", 1)
	for i := 0; i < 1000; i++ {
		table.Append(0, mrfs.Record{Key: []byte(fmt.Sprintf("k%04d", i)), Val: []byte("v")})
	}
	run := func(machines int) JobStats {
		cl := NewCluster(machines, 1<<30)
		_, stats, err := Run(cl, Job{
			Name:       "side",
			Input:      wordCountInput(machines, "a b c d e f"),
			Mapper:     wordCountMapper,
			Reducer:    sumReducer,
			SideInputs: map[string]*mrfs.Dataset{"table": table},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	s2 := run(2)
	s16 := run(16)
	side := float64(table.Bytes()) * DefaultCostModel().SideLoadPerByte
	if s2.MapSeconds < side || s16.MapSeconds < side {
		t.Fatalf("side load missing from map time: %v %v (side=%v)", s2.MapSeconds, s16.MapSeconds, side)
	}
}
