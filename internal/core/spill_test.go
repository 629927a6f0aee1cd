package core

import (
	"bytes"
	"math/rand"
	"testing"

	"vsmartjoin/internal/codec"
	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/mrfs"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
	"vsmartjoin/internal/vcl"
)

// TestJoinSpillMatchesInMemory forces the whole multi-job pipeline through
// the spill-to-disk shuffle and asserts the pair set is identical to the
// in-memory run, for every joining algorithm.
func TestJoinSpillMatchesInMemory(t *testing.T) {
	sets := randomMultisets(rand.New(rand.NewSource(17)), 80, 25, 8, 3)
	input := records.BuildInput("in", sets, 6)
	for _, alg := range []Algorithm{OnlineAggregation, Lookup, Sharding} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := Config{Measure: similarity.Ruzicka{}, Threshold: 0.4, Algorithm: alg}
			memRes, err := Join(testCluster(4), input, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spillCl := testCluster(4)
			spillCl.ShuffleBufferBytes = 512 // tiny: every job must spill
			spillRes, err := Join(spillCl, input, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !records.SamePairs(spillRes.Pairs, memRes.Pairs, 0) {
				t.Fatalf("spilled join pairs differ from in-memory pairs")
			}
			var spilled int64
			var rounds int
			for _, j := range spillRes.Stats.Jobs {
				spilled += j.SpilledBytes
				rounds += j.Spills
			}
			if spilled == 0 || rounds == 0 {
				t.Fatalf("join never spilled (cap 512B, %d jobs)", len(spillRes.Stats.Jobs))
			}
			// Spill I/O must surface in the simulated time, not disappear.
			if spillRes.Stats.TotalSeconds <= memRes.Stats.TotalSeconds {
				t.Fatalf("spill run simulated faster: %v <= %v",
					spillRes.Stats.TotalSeconds, memRes.Stats.TotalSeconds)
			}
		})
	}
}

// TestJoinSpillDeterministic repeats a spilling join and asserts identical
// pairs and simulated cost — the determinism contract holds in both
// shuffle modes.
func TestJoinSpillDeterministic(t *testing.T) {
	sets := randomMultisets(rand.New(rand.NewSource(23)), 60, 25, 8, 3)
	input := records.BuildInput("in", sets, 6)
	cl := testCluster(4)
	cl.ShuffleBufferBytes = 1024
	var firstPairs []records.Pair
	var firstSeconds float64
	for run := 0; run < 3; run++ {
		res, err := Join(cl, input, Config{
			Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: Sharding,
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			firstPairs = res.Pairs
			firstSeconds = res.Stats.TotalSeconds
			continue
		}
		if !records.SamePairs(res.Pairs, firstPairs, 0) {
			t.Fatalf("run %d: pairs differ", run)
		}
		if res.Stats.TotalSeconds != firstSeconds {
			t.Fatalf("run %d: simulated time differs", run)
		}
	}
}

// flatten serialises a dataset partition by partition, record by record,
// so two datasets are byte-identical exactly when their flattenings are.
func flatten(d *mrfs.Dataset) []byte {
	var b codec.Buffer
	for p := 0; p < d.NumPartitions(); p++ {
		part := d.Partition(p)
		b.PutUvarint(uint64(part.Len()))
		for i := 0; i < part.Len(); i++ {
			r := part.Record(i)
			b.PutBytes(r.Key)
			b.PutBytes(r.Sec)
			b.PutBytes(r.Val)
		}
	}
	return b.Bytes()
}

// TestOutputsIdenticalAcrossShuffleBuffers runs every pipeline built on
// the engine — the three joining algorithms and the VCL baseline — with
// the shuffle in memory, spilling at 4 KiB and spilling at 64 KiB, and
// demands byte-identical output: the same records in the same
// partitions.
// In-memory and spilled modes share one record representation; this pins
// that they also share one answer.
func TestOutputsIdenticalAcrossShuffleBuffers(t *testing.T) {
	tr, err := datagen.Generate(datagen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Two input partitions: each map task emits enough to overflow 64 KiB.
	input := records.BuildInput("in", tr.Multisets, 2)
	spilled := func(ps mr.PipelineStats) (n int64) {
		for _, j := range ps.Jobs {
			n += j.SpilledBytes
		}
		return n
	}
	join := func(alg Algorithm) func(mr.ClusterConfig) ([]byte, int64, error) {
		return func(cl mr.ClusterConfig) ([]byte, int64, error) {
			res, err := Join(cl, input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: alg})
			if err != nil {
				return nil, 0, err
			}
			return flatten(res.Output), spilled(res.Stats), nil
		}
	}
	pipelines := map[string]func(mr.ClusterConfig) ([]byte, int64, error){
		OnlineAggregation.String(): join(OnlineAggregation),
		Lookup.String():            join(Lookup),
		Sharding.String():          join(Sharding),
		"vcl": func(cl mr.ClusterConfig) ([]byte, int64, error) {
			res, err := vcl.Join(cl, input, vcl.Config{Measure: similarity.Ruzicka{}, Threshold: 0.5})
			if err != nil {
				return nil, 0, err
			}
			return flatten(res.Output), spilled(res.Stats), nil
		},
	}
	for name, run := range pipelines {
		t.Run(name, func(t *testing.T) {
			var inMemory []byte
			for _, buffer := range []int64{0, 4 << 10, 64 << 10} {
				cl := mr.NewCluster(4, 1<<30)
				cl.ShuffleBufferBytes = buffer
				out, spilledBytes, err := run(cl)
				if err != nil {
					t.Fatalf("buffer %d: %v", buffer, err)
				}
				switch {
				case buffer == 0:
					inMemory = out
					if len(out) == 0 || spilledBytes != 0 {
						t.Fatalf("in-memory run: %d output bytes, %d spilled", len(out), spilledBytes)
					}
				case buffer == 4<<10 && spilledBytes == 0:
					t.Fatalf("a %d-byte buffer never spilled", buffer)
				case !bytes.Equal(out, inMemory):
					t.Fatalf("buffer %d: output differs from the in-memory run (%d vs %d bytes)", buffer, len(out), len(inMemory))
				}
			}
		})
	}
}
