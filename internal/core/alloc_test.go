package core

import (
	"testing"

	"vsmartjoin/internal/datagen"
	"vsmartjoin/internal/mr"
	"vsmartjoin/internal/records"
	"vsmartjoin/internal/similarity"
)

// TestAllocationGates keeps the pointer-free record path honest between
// benchmark runs: records travel from input tuple to output pair inside
// batch slabs and encoders write into per-task scratch, so what a run
// allocates is per task and per batch growth step, not per record. The
// engine floor (the benchmark ladder's identity job: IdentityMapper and a
// reducer that counts its values) must stay under one allocation per
// record, and the online-aggregation join under five per input tuple —
// it was 91 with one three-slice Record and a cloned buffer per field.
func TestAllocationGates(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under -race measure the detector")
	}
	tr, err := datagen.Generate(datagen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cluster := mr.NewCluster(16, 1<<30)
	input := records.BuildInput("input", tr.Multisets, 4*cluster.Machines)
	tuples := float64(input.NumRecords())

	identity := mr.Job{
		Name:   "identity",
		Input:  input,
		Mapper: mr.IdentityMapper{},
		Reducer: mr.ReducerFunc(func(ctx *mr.TaskContext, key []byte, values *mr.Values, emit mr.Emitter) error {
			_, val := ctx.Scratch()
			val.PutUvarint(uint64(values.Len()))
			emit.Emit(key, val.Bytes())
			return nil
		}),
		OutputName: "identity-out",
	}
	perRecord := testing.AllocsPerRun(3, func() {
		if _, _, err := mr.Run(cluster, identity); err != nil {
			t.Fatal(err)
		}
	}) / tuples
	if perRecord >= 1 {
		t.Errorf("identity job: %.2f allocations per record, want < 1", perRecord)
	}

	perTuple := testing.AllocsPerRun(3, func() {
		if _, err := Join(cluster, input, Config{Measure: similarity.Ruzicka{}, Threshold: 0.5, Algorithm: OnlineAggregation}); err != nil {
			t.Fatal(err)
		}
	}) / tuples
	if perTuple > 5 {
		t.Errorf("online-aggregation join: %.2f allocations per input tuple, want <= 5", perTuple)
	}
	t.Logf("identity %.2f allocs/record, online-aggregation join %.2f allocs/tuple over %.0f tuples", perRecord, perTuple, tuples)
}
