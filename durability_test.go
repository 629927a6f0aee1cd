package vsmartjoin

// Durability gates at the public-API level, reusing the api_diff_test.go
// harness (randomEntities + exact-match comparison): an Index with a
// Dir, killed at arbitrary points (including a torn final WAL frame),
// must reopen into a state that answers every query exactly like an
// uninterrupted in-memory oracle that saw the same mutations.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"
)

// walPath returns the data dir's one WAL file (via bulk_test.go's
// walFiles).
func walPath(t *testing.T, dir string) string {
	t.Helper()
	wals := walFiles(t, dir)
	if len(wals) != 1 {
		t.Fatalf("want exactly one wal file, got %v", wals)
	}
	for path := range wals {
		return path
	}
	return ""
}

// tearWALTail appends a partial frame of random length to the data
// dir's current WAL file, simulating a process killed mid-append.
func tearWALTail(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	f, err := os.OpenFile(walPath(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A frame header claiming more payload than follows: garbage length
	// byte, bogus checksum, and a few bytes of a record that never
	// finished hitting the disk.
	torn := []byte{0x40, 0xde, 0xad, 0xbe, 0xef}
	for i := 0; i < rng.Intn(8); i++ {
		torn = append(torn, byte(rng.Intn(256)))
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
}

// mustAgree compares a recovered index against the oracle on
// Len plus threshold and top-k probes, demanding exact equality of
// matches, scores, and order.
func mustAgree(t *testing.T, tag string, got, oracle *Index, probes []map[string]uint32) {
	t.Helper()
	if g, w := got.Len(), oracle.Len(); g != w {
		t.Fatalf("%s: len %d, oracle %d", tag, g, w)
	}
	for pi, probe := range probes {
		for _, thr := range []float64{0, 0.3, 0.7} {
			g, err := got.QueryThreshold(probe, thr)
			if err != nil {
				t.Fatal(err)
			}
			w, err := oracle.QueryThreshold(probe, thr)
			if err != nil {
				t.Fatal(err)
			}
			if len(g) != len(w) {
				t.Fatalf("%s probe %d t=%v: %d matches, oracle %d\ngot    %v\noracle %v", tag, pi, thr, len(g), len(w), g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("%s probe %d t=%v match %d: got %v oracle %v", tag, pi, thr, i, g[i], w[i])
				}
			}
		}
		g, w := got.QueryTopK(probe, 5), oracle.QueryTopK(probe, 5)
		if len(g) != len(w) {
			t.Fatalf("%s probe %d topk: %d vs %d", tag, pi, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s probe %d topk %d: got %v oracle %v", tag, pi, i, g[i], w[i])
			}
		}
	}
}

// TestCrashRecoveryDifferential interleaves Add/Remove/Query on a
// durable index and an in-memory oracle, hard-stops the durable
// one (abandoned without Close, WAL tail torn mid-frame), reopens it,
// and requires the recovered index to answer exactly like the oracle.
// The tight SnapshotEvery forces several snapshot rotations along the
// way, so recovery exercises snapshot-load + log-replay, not just one.
func TestCrashRecoveryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	dir := t.TempDir()
	opts := IndexOptions{Measure: "ruzicka", Dir: dir, SnapshotEvery: 17}
	durable, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewIndex(IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}

	randomCounts := func() map[string]uint32 {
		counts := make(map[string]uint32)
		base := rng.Intn(24)
		for j := 0; j < 1+rng.Intn(7); j++ {
			var elem int
			if j%2 == 0 {
				elem = (base + rng.Intn(4)) % 24
			} else {
				elem = rng.Intn(24)
			}
			counts[fmt.Sprintf("e%d", elem)] += uint32(1 + rng.Intn(3))
		}
		return counts
	}
	var probes []map[string]uint32
	for i := 0; i < 6; i++ {
		probes = append(probes, randomCounts())
	}

	for round := 0; round < 5; round++ {
		for op := 0; op < 60; op++ {
			name := fmt.Sprintf("entity-%02d", rng.Intn(40))
			if rng.Float64() < 0.3 {
				dr, err := durable.Remove(name)
				if err != nil {
					t.Fatal(err)
				}
				or, err := oracle.Remove(name)
				if err != nil {
					t.Fatal(err)
				}
				if dr != or {
					t.Fatalf("round %d op %d: Remove(%s) %v, oracle %v", round, op, name, dr, or)
				}
			} else {
				counts := randomCounts()
				if err := durable.Add(name, counts); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Add(name, counts); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustAgree(t, fmt.Sprintf("round %d pre-crash", round), durable, oracle, probes)

		// Hard stop: no Close, no final snapshot, and a torn frame at the
		// WAL tail as if the process died mid-append.
		tearWALTail(t, dir, rng)
		durable, err = NewIndex(opts)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		mustAgree(t, fmt.Sprintf("round %d recovered", round), durable, oracle, probes)
	}

	// Graceful path: Close writes a final snapshot; reopening replays no
	// log at all and must still agree.
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	mustAgree(t, "after graceful close", reopened, oracle, probes)
}

// TestDurableMutationsAfterClose: a closed index refuses mutations but
// keeps serving queries.
func TestDurableMutationsAfterClose(t *testing.T) {
	dir := t.TempDir()
	ix, err := NewIndex(IndexOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("a", map[string]uint32{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := ix.Add("b", map[string]uint32{"y": 1}); err == nil {
		t.Fatal("add after close should fail")
	}
	if err := ix.Snapshot(); err == nil {
		t.Fatal("snapshot after close should fail")
	}
	got, err := ix.QueryThreshold(map[string]uint32{"x": 1}, 0.5)
	if err != nil || len(got) != 1 {
		t.Fatalf("query after close: %v %v", got, err)
	}
}

// TestDurableOptionValidation covers the new IndexOptions surface.
func TestDurableOptionValidation(t *testing.T) {
	vol, err := NewIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.Snapshot(); err == nil {
		t.Fatal("snapshot of a volatile index should fail")
	}
	if err := vol.Close(); err != nil {
		t.Fatalf("closing a volatile index is a no-op: %v", err)
	}

	// Reopening under a different measure is refused once a snapshot
	// exists — replaying it would silently change every score.
	dir := t.TempDir()
	ix, err := NewIndex(IndexOptions{Measure: "ruzicka", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add("a", map[string]uint32{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(IndexOptions{Measure: "jaccard", Dir: dir}); err == nil {
		t.Fatal("measure mismatch should fail")
	}

	// The same before the first snapshot a mutation triggers: creating a
	// durable dir writes an empty snapshot recording the measure, so a
	// crash right after the first Add cannot reopen under another one.
	crashed := t.TempDir()
	abandoned, err := NewIndex(IndexOptions{Measure: "ruzicka", Dir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	if err := abandoned.Add("a", map[string]uint32{"x": 1}); err != nil {
		t.Fatal(err)
	}
	// Crash: abandoned is never closed, so no snapshot beyond the first.
	if re, err := NewIndex(IndexOptions{Measure: "jaccard", Dir: crashed}); err == nil {
		t.Fatalf("a crashed dir reopened under another measure: len=%d measure=%s", re.Len(), re.Stats().Measure)
	}
	re, err := OpenIndex(IndexOptions{Dir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 || re.Stats().Measure != "ruzicka" {
		t.Fatalf("reopened len=%d measure=%s, want 1 ruzicka", re.Len(), re.Stats().Measure)
	}
}

// indexAgrees is mustAgree's non-fatal twin: it reports whether two
// indexes answer identically instead of failing the test, so torn-batch
// recovery can search for WHICH prefix of a batch survived.
func indexAgrees(got, oracle *Index, probes []map[string]uint32) bool {
	if got.Len() != oracle.Len() {
		return false
	}
	for _, probe := range probes {
		for _, thr := range []float64{0, 0.5} {
			g, err1 := got.QueryThreshold(probe, thr)
			w, err2 := oracle.QueryThreshold(probe, thr)
			if err1 != nil || err2 != nil || len(g) != len(w) {
				return false
			}
			for i := range g {
				if g[i] != w[i] {
					return false
				}
			}
		}
	}
	return true
}

// TestCrashRecoveryMidGroupCommit kills a DurabilitySync index in the
// middle of a group commit: a batch has been written to the WAL but the
// crash shears off an arbitrary byte suffix of it, emulating every torn
// write a mid-fsync kill can leave. The contract under test is the
// group-commit acknowledgement boundary — everything acknowledged
// before the batch (the base) must survive every cut, and the recovered
// state must always equal base + some prefix of the torn batch, never a
// subset with holes and never invented records. Its one leg is named for
// the one partition every index is.
func TestCrashRecoveryMidGroupCommit(t *testing.T) {
	t.Run("shards=1", crashMidGroupCommit)
}

func crashMidGroupCommit(t *testing.T) {
	dir := t.TempDir()
	opts := IndexOptions{Measure: "ruzicka", Dir: dir, SnapshotEvery: -1,
		Durability: DurabilitySync, GroupCommitWindow: 50 * time.Microsecond}
	ix, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Acknowledged base: once AddBatch returns under DurabilitySync the
	// fsync happened, so no cut below may lose any of it.
	base := make([]BatchEntry, 0, 16)
	for i := 0; i < 16; i++ {
		base = append(base, BatchEntry{
			Entity:   fmt.Sprintf("base-%02d", i),
			Elements: map[string]uint32{fmt.Sprintf("b%d", i%8): uint32(i + 1), "shared": 1},
		})
	}
	if err := ix.AddBatch(base); err != nil {
		t.Fatal(err)
	}
	wal := walPath(t, dir)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	baseSize := fi.Size()

	// The doomed batch: half overwrite base entities, half are new, and
	// each carries a unique element so every prefix length is
	// distinguishable by queries.
	tail := make([]BatchEntry, 0, 10)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("tail-%02d", i)
		if i%2 == 0 {
			name = fmt.Sprintf("base-%02d", i)
		}
		tail = append(tail, BatchEntry{
			Entity:   name,
			Elements: map[string]uint32{fmt.Sprintf("t%d", i): uint32(i + 1), "shared": 2},
		})
	}
	if err := ix.AddBatch(tail); err != nil {
		t.Fatal(err)
	}
	// Crash here: ix is abandoned without Close, and the final batch's
	// bytes are sheared off a few at a time below.

	oracles := make([]*Index, len(tail)+1)
	for j := range oracles {
		o, err := NewIndex(IndexOptions{Measure: "ruzicka"})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.AddBatch(base); err != nil {
			t.Fatal(err)
		}
		if err := o.AddBatch(tail[:j]); err != nil {
			t.Fatal(err)
		}
		oracles[j] = o
	}
	probes := []map[string]uint32{{"shared": 1}, {"b0": 1, "b4": 2}}
	for i := range tail {
		probes = append(probes, map[string]uint32{fmt.Sprintf("t%d", i): 1})
	}

	rng := rand.New(rand.NewSource(96))
	lastJ := len(tail)
	for round := 0; ; round++ {
		fi, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		cur := fi.Size()
		if round > 0 {
			// Cut relative to the CURRENT size: recovery may itself have
			// repaired the file down to a frame boundary, and truncating to
			// a stale larger offset would zero-pad instead of shearing.
			if cur <= baseSize {
				break
			}
			cut := cur - int64(1+rng.Intn(40))
			if cut < baseSize {
				cut = baseSize
			}
			if err := os.Truncate(wal, cut); err != nil {
				t.Fatal(err)
			}
		}
		re, err := NewIndex(opts)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		j := -1
		for cand := lastJ; cand >= 0; cand-- {
			if indexAgrees(re, oracles[cand], probes) {
				j = cand
				break
			}
		}
		if j < 0 {
			t.Fatalf("round %d: recovered state matches no prefix base+tail[:j], j <= %d — acknowledged data lost or holes in the batch", round, lastJ)
		}
		if round == 0 && j != len(tail) {
			t.Fatalf("uncut log recovered only %d of %d batch entries", j, len(tail))
		}
		lastJ = j
		// re is deliberately leaked: Close would snapshot and rotate,
		// destroying the very log bytes the next cut is about to shear.
	}
	if lastJ != 0 {
		t.Fatalf("log cut back to the acknowledged base still recovered %d tail entries", lastJ)
	}
}

// TestCrashRecoveryConcurrentBatches hammers a DurabilitySync index
// with concurrent batched writers — Apply storms, RemoveBatch,
// AddBatch — racing lock-free readers, then hard-stops it (no Close,
// torn WAL tail) and requires the reopened index to answer exactly like
// an oracle holding every acknowledged mutation. Writers own disjoint
// entity spaces so the final state is deterministic. Run under -race
// this is also the batched write path's data-race gate.
func TestCrashRecoveryConcurrentBatches(t *testing.T) {
	dir := t.TempDir()
	opts := IndexOptions{Measure: "ruzicka", Dir: dir, SnapshotEvery: 29,
		Durability: DurabilitySync, GroupCommitWindow: 100 * time.Microsecond}
	ix, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 32
	const rounds = 4
	name := func(w, i int) string { return fmt.Sprintf("w%d-%03d", w, i) }
	elems := func(w, i, round int) map[string]uint32 {
		return map[string]uint32{
			fmt.Sprintf("el%d", (w*7+i)%24):     uint32(round + 1),
			fmt.Sprintf("el%d", (i*3+round)%24): uint32(i%5 + 1),
			"shared":                            uint32(w + 1),
		}
	}

	errs := make(chan error, writers+2)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	done := make(chan struct{})
	var readerWG, writerWG sync.WaitGroup

	// Readers race the writers on the lock-free query path.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			probe := map[string]uint32{"shared": 1, fmt.Sprintf("el%d", r): 2}
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := ix.QueryThreshold(probe, 0.3); err != nil {
					fail(err)
					return
				}
				ix.QueryTopK(probe, 3)
			}
		}(r)
	}

	finals := make([]map[string]map[string]uint32, writers)
	for w := 0; w < writers; w++ {
		finals[w] = make(map[string]map[string]uint32, perWriter)
		writerWG.Add(1)
		go func(w int, final map[string]map[string]uint32) {
			defer writerWG.Done()
			for round := 0; round < rounds; round++ {
				// Upsert storm over the whole key space, a few mutations per
				// Apply so the writers' group commits overlap.
				for lo := 0; lo < perWriter; lo += 8 {
					storm := make([]Mutation, 0, 8)
					for i := lo; i < lo+8; i++ {
						e := elems(w, i, round)
						storm = append(storm, Mutation{Op: OpAdd, Entity: name(w, i), Elements: e})
						final[name(w, i)] = e
					}
					if _, err := ix.Apply(context.Background(), storm); err != nil {
						fail(err)
						return
					}
				}
				// Thin out a sliding window, then batch half of it back.
				var victims []string
				for i := round; i < perWriter; i += 4 {
					victims = append(victims, name(w, i))
				}
				if _, err := ix.RemoveBatch(victims); err != nil {
					fail(err)
					return
				}
				for _, v := range victims {
					delete(final, v)
				}
				var back []BatchEntry
				for k, v := range victims {
					if k%2 == 0 {
						e := elems(w, k, round)
						back = append(back, BatchEntry{Entity: v, Elements: e})
						final[v] = e
					}
				}
				if err := ix.AddBatch(back); err != nil {
					fail(err)
					return
				}
			}
		}(w, finals[w])
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Hard stop: abandon without Close. Every mutation above was
	// acknowledged, so under DurabilitySync all of it must survive the
	// torn frame a mid-append kill leaves behind.
	rng := rand.New(rand.NewSource(97))
	tearWALTail(t, dir, rng)
	recovered, err := NewIndex(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	oracle, err := NewIndex(IndexOptions{Measure: "ruzicka"})
	if err != nil {
		t.Fatal(err)
	}
	for _, final := range finals {
		// Writers own disjoint entity spaces, so apply order across
		// writers cannot matter; within a writer only the final value of
		// each surviving entity does.
		names := make([]string, 0, len(final))
		for n := range final {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := oracle.Add(n, final[n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	probes := []map[string]uint32{
		{"shared": 1},
		{"el0": 1, "el7": 2},
		{"el3": 1, "shared": 2},
		elems(1, 3, rounds-1),
	}
	mustAgree(t, "recovered after concurrent batched writes", recovered, oracle, probes)
}
