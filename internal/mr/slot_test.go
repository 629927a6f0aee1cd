package mr

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"vsmartjoin/internal/mrfs"
)

// identityReducer emits every value of its group under the group's key.
var identityReducer = ReducerFunc(func(_ *TaskContext, key []byte, values *Values, emit Emitter) error {
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		emit.EmitSec(key, v.Sec, v.Val)
	}
	return nil
})

// keyedInput is n records over keys that repeat every mod records, each
// value naming its record and the seed, so two seeds give different data.
func keyedInput(seed, n, mod, parts int) *mrfs.Dataset {
	recs := make([]mrfs.Record, n)
	for i := range recs {
		recs[i] = mrfs.Record{
			Key: []byte(fmt.Sprintf("key-%05d", (i*7919+seed)%mod)),
			Val: []byte(fmt.Sprintf("seed %d value %06d", seed, i)),
		}
	}
	return dataset("keyed", recs, parts)
}

// partitionBytes copies out every partition of d, record by record, in
// partition order — what a later job would read.
func partitionBytes(d *mrfs.Dataset) [][]mrfs.Record {
	out := make([][]mrfs.Record, d.NumPartitions())
	for p := range out {
		b := d.Partition(p)
		for i := 0; i < b.Len(); i++ {
			r := b.Record(i)
			out[p] = append(out[p], mrfs.Record{
				Key: bytes.Clone(r.Key), Sec: bytes.Clone(r.Sec), Val: bytes.Clone(r.Val),
			})
		}
	}
	return out
}

// TestOutputOutlivesSlotReuse: a Run's output dataset shares no storage
// with the worker slots it returns to the pool. Job A's output holds what
// an engine-free oracle says, right after A and again after each job B, on
// other data, reuses those slots — with and without a combiner, in memory
// and under a spill cap.
func TestOutputOutlivesSlotReuse(t *testing.T) {
	identity := func(in *mrfs.Dataset) []mrfs.Record { return in.Sorted() }
	count := func(in *mrfs.Dataset) []mrfs.Record {
		n := map[string]int{}
		for _, r := range in.All() {
			n[string(r.Key)]++
		}
		var out []mrfs.Record
		for k, c := range n {
			out = append(out, mrfs.Record{Key: []byte(k), Val: []byte(strconv.Itoa(c))})
		}
		slices.SortFunc(out, mrfs.Compare)
		return out
	}
	countMapper := MapperFunc(func(_ *TaskContext, rec mrfs.Record, emit Emitter) error {
		emit.Emit(rec.Key, []byte("1"))
		return nil
	})
	for _, c := range []struct {
		name   string
		cap    int64
		job    Job
		oracle func(*mrfs.Dataset) []mrfs.Record
	}{
		{"in-memory", 0, Job{Mapper: IdentityMapper{}, Reducer: identityReducer}, identity},
		{"combiner", 0, Job{Mapper: countMapper, Combiner: sumReducer, Reducer: sumReducer}, count},
		{"spill", 2 << 10, Job{Mapper: IdentityMapper{}, Reducer: identityReducer}, identity},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := spillCluster(4, c.cap)
			run := func(seed int) *mrfs.Dataset {
				job := c.job
				job.Name, job.Input = "reuse", keyedInput(seed, 3000, 400, 6)
				out, _, err := Run(cl, job)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			a := run(1)
			want := c.oracle(keyedInput(1, 3000, 400, 6))
			assertSameRecords(t, a.Sorted(), want)
			for seed := 2; seed < 5; seed++ {
				run(seed)
				assertSameRecords(t, a.Sorted(), want)
			}
		})
	}
}

// TestConcurrentRunsOnSharedPool: goroutines running different jobs back
// to back on the one slot pool each get exactly their serial outputs and
// simulated figures. Under -race this also checks that no two Runs ever
// hold the same slot.
func TestConcurrentRunsOnSharedPool(t *testing.T) {
	jobs := []Job{
		{Name: "identity", Input: keyedInput(1, 4000, 500, 5), Mapper: IdentityMapper{}, Reducer: identityReducer},
		{Name: "wordcount", Input: bigWordInput(7, 2000), Mapper: wordCountMapper, Combiner: sumReducer, Reducer: sumReducer, NumReducers: 3},
	}
	want := make([][][]mrfs.Record, len(jobs))
	wantSeconds := make([]float64, len(jobs))
	for i, j := range jobs {
		out, stats, err := Run(testCluster(4), j)
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantSeconds[i] = partitionBytes(out), stats.TotalSeconds
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				out, stats, err := Run(testCluster(4), j)
				if err != nil {
					errs[i] = err
					return
				}
				if stats.TotalSeconds != wantSeconds[i] {
					errs[i] = fmt.Errorf("%s: %v simulated seconds, serial run %v", j.Name, stats.TotalSeconds, wantSeconds[i])
					return
				}
				if !slices.EqualFunc(partitionBytes(out), want[i], func(x, y []mrfs.Record) bool {
					return slices.EqualFunc(x, y, func(a, b mrfs.Record) bool { return mrfs.Compare(a, b) == 0 })
				}) {
					errs[i] = fmt.Errorf("%s: output differs from the serial run", j.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmRunAllocatesOnlyHandOver: once the pool's slots have grown for
// a job, running it again allocates the batches it hands over — each map
// task's exactly sized output, each reduce task's exactly sized output and
// the re-striped dataset — and a fixed allowance for tasks, contexts and
// counters, but no staging batch or sort scratch.
func TestWarmRunAllocatesOnlyHandOver(t *testing.T) {
	if raceDetector {
		t.Skip("allocation figures under -race measure the detector")
	}
	job := Job{Name: "identity", Input: keyedInput(1, 20000, 2000, 8), Mapper: IdentityMapper{}, Reducer: identityReducer}
	cl := testCluster(4)
	cl.MemPerMachine = 1 << 30
	var stats JobStats
	var err error
	for range 2 { // warm the slots
		if _, stats, err = Run(cl, job); err != nil {
			t.Fatal(err)
		}
	}
	const index = 24 // bytes per record of a batch's index
	handOver := stats.ShuffleBytes + index*stats.CombineOutRecs + 2*(stats.OutputBytes+index*stats.ReduceOutRecs)
	const allowance = 128 << 10
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := Run(cl, job); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := int64(after.TotalAlloc-before.TotalAlloc) / runs; per > handOver+allowance {
		t.Fatalf("a warm Run allocates %d bytes; it hands over %d, allowance %d", per, handOver, allowance)
	}
}

// TestPoolBounds: the pool never holds more than GOMAXPROCS slots, however
// many Runs return theirs at once, and it drops a slot whose storage
// outgrew the job's memory budget.
func TestPoolBounds(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				if _, _, err := Run(testCluster(4), Job{Name: "bounds", Input: keyedInput(g, 500, 50, 4), Mapper: IdentityMapper{}, Reducer: identityReducer}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	pool.Lock()
	idle := len(pool.idle)
	pool.Unlock()
	if idle > runtime.GOMAXPROCS(0) {
		t.Fatalf("pool holds %d slots, GOMAXPROCS is %d", idle, runtime.GOMAXPROCS(0))
	}

	drained := takeSlots(idle) // empty the pool, so only the next Run's slots can land in it
	defer returnSlots(drained, 1<<30)
	tight := testCluster(4)
	tight.MemPerMachine = 64 << 10 // smaller than the slots this job grows
	if _, _, err := Run(tight, Job{Name: "tight", Input: keyedInput(1, 5000, 500, 4), Mapper: IdentityMapper{}, Reducer: identityReducer}); err != nil {
		t.Fatal(err)
	}
	pool.Lock()
	defer pool.Unlock()
	for _, s := range pool.idle {
		if s.footprint() > tight.MemPerMachine {
			t.Fatalf("pool kept a slot of %d bytes, over the %d-byte budget", s.footprint(), tight.MemPerMachine)
		}
	}
}
