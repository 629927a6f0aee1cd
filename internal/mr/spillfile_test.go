package mr

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vsmartjoin/internal/mrfs"
)

// spillFiles counts the files in every spill dir under tmp and returns
// the names of the map-side ones.
func spillFiles(tmp string) (int, []string, error) {
	dirs, err := filepath.Glob(filepath.Join(tmp, "vsmartjoin-shuffle-*"))
	n, mapFiles := 0, []string(nil)
	for _, dir := range dirs {
		files, derr := os.ReadDir(dir)
		n += len(files)
		err = errors.Join(err, derr)
		for _, f := range files {
			if strings.HasPrefix(f.Name(), "map") {
				mapFiles = append(mapFiles, f.Name())
			}
		}
	}
	return n, mapFiles, err
}

// goroutineID is the ID the runtime prints for the calling goroutine:
// the map tasks of one worker, and so of one slot, run on one goroutine.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1] // "goroutine N [running]:"
}

// TestSpillFilesPerMapTask counts the spill dir's files from inside the
// reducer, while every map task's runs are still on disk: exactly one
// file per worker slot that spilled, named after the first map task that
// spilled on it, whatever the spill rounds and reduce partitions, plus
// one per compacting partition while that partition is reduced. Which
// slot ran a task is told by the goroutine its mapper ran on, and a
// worker takes its tasks in index order, so a slot's first spilling task
// is its lowest-numbered one.
func TestSpillFilesPerMapTask(t *testing.T) {
	for _, tc := range []struct {
		name    string
		input   *mrfs.Dataset
		cap     int64
		compact bool
	}{
		{"no-compaction", bigWordInput(4, 600), 1024, false},
		{"compaction", bigWordInput(1, 2500), 64, true}, // TestSpillCompaction's job
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			var mu sync.Mutex
			most, seen := 0, map[string]bool{}
			workerOf := map[int]string{}
			mapper := MapperFunc(func(ctx *TaskContext, rec mrfs.Record, emit Emitter) error {
				mu.Lock()
				workerOf[ctx.TaskIndex] = goroutineID()
				mu.Unlock()
				return wordCountMapper.Map(ctx, rec, emit)
			})
			reducer := ReducerFunc(func(ctx *TaskContext, key []byte, values *Values, emit Emitter) error {
				n, names, err := spillFiles(tmp)
				if err != nil {
					return err
				}
				mu.Lock()
				most = max(most, n)
				for _, name := range names {
					seen[name] = true
				}
				mu.Unlock()
				return sumReducer.Reduce(ctx, key, values, emit)
			})
			_, stats := runSorted(t, spillCluster(2, tc.cap), Job{Name: "wordcount", Input: tc.input, Mapper: mapper, Reducer: reducer})
			if tc.compact != (stats.Spills > maxMergeFanIn) {
				t.Fatalf("%d spill rounds against a merge fan-in of %d: compaction %v, want %v",
					stats.Spills, maxMergeFanIn, !tc.compact, tc.compact)
			}
			first := map[string]int{} // worker -> its lowest spilling task
			for task, io := range stats.Profile.MapTasks {
				if w := workerOf[task]; io.SpillIO > 0 {
					if f, ok := first[w]; !ok || task < f {
						first[w] = task
					}
				}
			}
			if len(first) == 0 {
				t.Fatal("no map task spilled")
			}
			want := map[string]bool{}
			for _, task := range first {
				want[fmt.Sprintf("map%04d.seg", task)] = true
			}
			if !maps.Equal(seen, want) {
				t.Fatalf("map spill files %v, want %v: one per slot that spilled, named after its first spilling task", slices.Sorted(maps.Keys(seen)), slices.Sorted(maps.Keys(want)))
			}
			lo, hi := len(want), len(want)
			if tc.compact {
				lo, hi = lo+1, hi+stats.ReduceTasks // a reducer sees its own partition's file
			}
			if most < lo || most > hi {
				t.Fatalf("%d spill rounds over %d reduce partitions: a reducer saw up to %d spill files, want %d to %d for %d slots that spilled",
					stats.Spills, stats.ReduceTasks, most, lo, hi, len(want))
			}
			if n, _, err := spillFiles(tmp); n != 0 || err != nil {
				t.Fatalf("%d spill files left after the job (%v)", n, err)
			}
		})
	}
}

// TestSpillLeavesNoFileOpen: a spill file lives for the whole job, so Run
// must close every one before it returns — after a job that succeeds, and
// after one whose mapper fails once its task has spilled.
func TestSpillLeavesNoFileOpen(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cl := spillCluster(4, 256)
	job := Job{Name: "wordcount", Input: bigWordInput(4, 600), Mapper: wordCountMapper, Reducer: sumReducer}
	runSorted(t, cl, job) // the runtime opens what it keeps for good on first use
	before := openFiles()
	runSorted(t, cl, job)
	if after := openFiles(); after != before {
		t.Fatalf("a spilling job left %d descriptors open", after-before)
	}

	errMapper := errors.New("mapper failed after its task spilled")
	job.Mapper = MapperFunc(func(ctx *TaskContext, rec mrfs.Record, emit Emitter) error {
		if ctx.TaskIndex == 0 {
			if spilled, _ := filepath.Glob(filepath.Join(tmp, "vsmartjoin-shuffle-*", "map0000.seg")); len(spilled) > 0 {
				return errMapper
			}
		}
		return wordCountMapper.Map(ctx, rec, emit)
	})
	if _, _, err := Run(cl, job); !errors.Is(err, errMapper) {
		t.Fatalf("Run = %v, want the mapper's failure", err)
	}
	if after := openFiles(); after != before {
		t.Fatalf("a job whose spilled map task failed left %d descriptors open", after-before)
	}
	if n, _, err := spillFiles(tmp); n != 0 || err != nil {
		t.Fatalf("%d spill files left after the failed job (%v)", n, err)
	}
}
