package recsim

import (
	"testing"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/xrand"
)

// TestCkptSteadyStateAllocs is the dirty-tracking allocation budget: the
// per-step Mark of one batch's touched rows, the ascending ForEach walk a
// delta encode performs, and the post-save Reset must not touch the heap.
// (TestTrainStepZeroAlloc separately proves the full training step stays
// zero-alloc with tracking enabled.)
func TestCkptSteadyStateAllocs(t *testing.T) {
	// One step of the shared bench model leaves a realistic touched-row
	// set in the dirty trackers.
	cfg := benchreport.BenchStepConfig()
	tr := core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
	tr.Step(data.NewGenerator(cfg, 2, data.DefaultOptions()).NextBatch(128))
	dirty := tr.DirtyRows()
	touched := make([][]int32, len(dirty))
	for i, d := range dirty {
		d.ForEach(func(r int32) { touched[i] = append(touched[i], r) })
	}

	var sink int32
	walk := func(r int32) { sink = r }
	if avg := testing.AllocsPerRun(10, func() {
		for ti, ids := range touched {
			dirty[ti].Mark(ids)
		}
		for _, d := range dirty {
			d.ForEach(walk)
		}
		for _, d := range dirty {
			d.Reset()
		}
	}); avg != 0 {
		t.Fatalf("dirty mark/walk/reset cycle allocates %.1f objects, want 0", avg)
	}
	_ = sink
}
