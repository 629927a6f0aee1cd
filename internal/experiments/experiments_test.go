package experiments

import (
	"strings"
	"testing"

	"vsmartjoin/internal/core"
	"vsmartjoin/internal/similarity"
)

func TestFig2and3Tiny(t *testing.T) {
	env := NewTinyEnv()
	r, err := Fig2and3(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "Fig 2") || !strings.Contains(r.Body, "Fig 3") {
		t.Fatalf("missing sections:\n%s", r.Body)
	}
	if !strings.Contains(r.Body, "small dataset") || !strings.Contains(r.Body, "realistic dataset") {
		t.Fatalf("missing datasets:\n%s", r.Body)
	}
}

func TestThresholdSweepTiny(t *testing.T) {
	env := NewTinyEnv()
	_, input, err := env.Small()
	if err != nil {
		t.Fatal(err)
	}
	r, err := thresholdSweep(input, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "pair counts at every threshold: true") {
		t.Fatalf("algorithms disagreed:\n%s", r.Body)
	}
}

func TestFig7Tiny(t *testing.T) {
	env := NewTinyEnv()
	r, err := Fig7(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "sharding1") || !strings.Contains(r.Body, "sharding2") {
		t.Fatalf("missing series:\n%s", r.Body)
	}
}

func TestProxyStudyTiny(t *testing.T) {
	env := NewTinyEnv()
	r, err := ProxyStudy(env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Body, "precision") {
		t.Fatalf("missing metrics:\n%s", r.Body)
	}
}

func TestEvalTotalMonotone(t *testing.T) {
	env := NewTinyEnv()
	_, input, err := env.Small()
	if err != nil {
		t.Fatal(err)
	}
	res, err := paperJoin(Cluster(DefaultMachines), input, 0.5, core.Sharding)
	if err != nil {
		t.Fatal(err)
	}
	prev := evalTotal(res.Stats, 100)
	for _, w := range []int{200, 400, 800} {
		cur := evalTotal(res.Stats, w)
		if cur > prev+1e-9 {
			t.Fatalf("time increased with machines: w=%d %v > %v", w, cur, prev)
		}
		prev = cur
	}
}

// TestPaperJoinIsUnpruned holds the figure reproductions to the paper's
// Similarity1: every pair sharing an element is emitted, none is
// length-pruned, so the simulated times stay those of the paper's
// algorithms.
func TestPaperJoinIsUnpruned(t *testing.T) {
	_, input, err := NewTinyEnv().Small()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.OnlineAggregation, core.Lookup, core.Sharding} {
		res, err := paperJoin(Cluster(DefaultMachines), input, 0.5, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if n := res.Stats.Counter(core.CounterLengthPruned); n != 0 {
			t.Fatalf("%s: %d tuples length-pruned, want the paper's unpruned Similarity1", alg, n)
		}
		// The same join with the filter on does prune this input, so the
		// zero above is the opt-out's doing.
		pruned, err := core.Join(Cluster(DefaultMachines), input, core.Config{
			Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: alg, NumReducers: NumReducers,
		})
		if err != nil {
			t.Fatalf("%s filtered: %v", alg, err)
		}
		if pruned.Stats.Counter(core.CounterLengthPruned) == 0 {
			t.Fatalf("%s: the filtered join pruned nothing either", alg)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{ID: "x", Title: "y", Body: "z"}
	s := r.String()
	if !strings.Contains(s, "x: y") || !strings.Contains(s, "z") {
		t.Fatalf("report string: %q", s)
	}
}
