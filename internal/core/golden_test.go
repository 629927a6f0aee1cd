package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.txt from this run")

const goldenPath = "testdata/golden_stats.txt"

// TestGoldenSimulatedFigures pins, on datagen's tiny trace, the pairs and
// every simulated figure of every job — record counts, shuffle and spill
// bytes, simulated seconds, counters and the per-task cost profile — for
// each joining algorithm, and for Sharding under a 4 KiB spill cap. An
// engine change that only makes the join faster or smaller must leave this
// file byte-identical; the real wall-clock fields are not pinned. After a
// change that moves the figures on purpose, regenerate the file with
// go test ./internal/core -run TestGoldenSimulatedFigures -update.
func TestGoldenSimulatedFigures(t *testing.T) {
	tr, err := datagen.Generate(datagen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const machines = 16
	input := records.BuildInput("input", tr.Multisets, 4*machines)
	spill := mr.NewCluster(machines, 1<<30)
	spill.ShuffleBufferBytes = 4 << 10
	var got strings.Builder
	for _, c := range []struct {
		name    string
		alg     Algorithm
		cluster mr.ClusterConfig
	}{
		{"online-aggregation", OnlineAggregation, mr.NewCluster(machines, 1<<30)},
		{"lookup", Lookup, mr.NewCluster(machines, 1<<30)},
		{"sharding", Sharding, mr.NewCluster(machines, 1<<30)},
		{"sharding spill-cap-4KiB", Sharding, spill},
	} {
		res, err := Join(c.cluster, input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: c.alg})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		writeGolden(&got, c.name, res)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %s\n want %s", goldenPath, i+1, g, w)
		}
	}
}

// writeGolden renders one join's pairs digest and the simulated figures of
// each of its jobs. Floats print in their shortest exact form, so any
// change of value shows.
func writeGolden(b *strings.Builder, name string, res *Result) {
	h := sha256.New()
	for _, p := range res.Pairs {
		fmt.Fprintf(h, "%d %d %v\n", p.A, p.B, p.Sim)
	}
	fmt.Fprintf(b, "== %s: %d pairs sha256 %x; %v s simulated\n", name, len(res.Pairs), h.Sum(nil), res.Stats.TotalSeconds)
	for _, j := range res.Stats.Jobs {
		fmt.Fprintf(b, "%s: machines %d, tasks %d map %d reduce\n", j.Name, j.Machines, j.MapTasks, j.ReduceTasks)
		fmt.Fprintf(b, "  records: map in %d, map out %d, combine out %d, reduce out %d\n",
			j.MapInRecords, j.MapOutRecords, j.CombineOutRecs, j.ReduceOutRecs)
		fmt.Fprintf(b, "  bytes: shuffle %d, spilled %d in %d spills, output %d\n",
			j.ShuffleBytes, j.SpilledBytes, j.Spills, j.OutputBytes)
		fmt.Fprintf(b, "  seconds: startup %v, map %v, shuffle %v, reduce %v, total %v\n",
			j.StartupSeconds, j.MapSeconds, j.ShuffleSeconds, j.ReduceSeconds, j.TotalSeconds)
		names := make([]string, 0, len(j.Counters))
		for k := range j.Counters {
			names = append(names, k)
		}
		slices.Sort(names)
		fmt.Fprintf(b, "  counters:")
		for _, k := range names {
			fmt.Fprintf(b, " %s=%d", k, j.Counters[k])
		}
		p := j.Profile
		fmt.Fprintf(b, "\n  profile: shuffle %d bytes %d records, side %d bytes, map tasks %s, reduce tasks %s\n",
			p.ShuffleBytes, p.ShuffleRecords, p.SideBytes, tasksDigest(p.MapTasks), tasksDigest(p.ReduceTasks))
	}
}

// tasksDigest is the task count and a short hash of every task's work
// quantities, in task order.
func tasksDigest(tasks []mr.TaskIO) string {
	h := sha256.New()
	for _, t := range tasks {
		fmt.Fprintf(h, "%+v\n", t)
	}
	return fmt.Sprintf("%d sha256 %x", len(tasks), h.Sum(nil)[:12])
}
