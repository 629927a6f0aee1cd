package mr

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vsmartjoin/internal/mrfs"
)

// spillFiles counts the files in every spill dir under tmp.
func spillFiles(tmp string) (int, error) {
	dirs, err := filepath.Glob(filepath.Join(tmp, "vsmartjoin-shuffle-*"))
	n := 0
	for _, dir := range dirs {
		files, derr := os.ReadDir(dir)
		n += len(files)
		err = errors.Join(err, derr)
	}
	return n, err
}

// TestSpillFilesPerMapTask counts the spill dir's files from inside the
// reducer, while every map task's runs are still on disk: one file per
// spilling map task, whatever its spill rounds and reduce partitions, plus
// one per compacting partition while that partition is reduced.
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
			most := 0
			reducer := ReducerFunc(func(ctx *TaskContext, key []byte, values *Values, emit Emitter) error {
				n, err := spillFiles(tmp)
				if err != nil {
					return err
				}
				mu.Lock()
				most = max(most, n)
				mu.Unlock()
				return sumReducer.Reduce(ctx, key, values, emit)
			})
			_, stats := runSorted(t, spillCluster(2, tc.cap), Job{Name: "wordcount", Input: tc.input, Mapper: wordCountMapper, Reducer: reducer})
			if tc.compact != (stats.Spills > maxMergeFanIn) {
				t.Fatalf("%d spill rounds against a merge fan-in of %d: compaction %v, want %v",
					stats.Spills, maxMergeFanIn, !tc.compact, tc.compact)
			}
			spilling := 0
			for _, io := range stats.Profile.MapTasks {
				if io.SpillIO > 0 {
					spilling++
				}
			}
			lo, hi := spilling, spilling
			if tc.compact {
				lo, hi = spilling+1, spilling+stats.ReduceTasks // a reducer sees its own partition's file
			}
			if most < lo || most > hi {
				t.Fatalf("%d spill rounds over %d reduce partitions: a reducer saw up to %d spill files, want %d to %d for %d spilling map tasks",
					stats.Spills, stats.ReduceTasks, most, lo, hi, spilling)
			}
			if n, err := spillFiles(tmp); n != 0 || err != nil {
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
	if n, err := spillFiles(tmp); n != 0 || err != nil {
		t.Fatalf("%d spill files left after the failed job (%v)", n, err)
	}
}
