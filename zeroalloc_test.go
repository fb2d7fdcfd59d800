package recsim

import (
	"testing"

	"repro/internal/benchreport"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestTrainStepZeroAlloc is the hot-path allocation budget: after warmup,
// one full training step (forward, interaction, backward, sparse scatter,
// dense + sparse optimizer updates) must not touch the heap. AllocsPerRun
// pins GOMAXPROCS to 1, so the kernels take their serial path and the
// result is deterministic. Any regression here means a per-step
// allocation crept back into tensor/nn/embedding/core.
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := benchreport.BenchStepConfig()
	m := core.NewModel(cfg, xrand.New(1))
	tr := core.NewTrainer(m, core.TrainerConfig{LR: 0.05})
	gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
	batch := gen.NextBatch(128)
	// Warm every lazily-sized scratch buffer (activations, interaction
	// views, sparse-grad slabs, logit/grad buffers).
	for i := 0; i < 3; i++ {
		tr.Step(batch)
	}
	if avg := testing.AllocsPerRun(10, func() { tr.Step(batch) }); avg != 0 {
		t.Fatalf("Trainer.Step allocates %.1f objects per step at steady state, want 0", avg)
	}
}

// TestQuantizedStepZeroAlloc is the mixed-precision companion budget:
// a full hybrid-parallel step with bf16 embedding tables (split-SGD
// replica re-quantization on every touched row) and int8-compressed
// collective wires must stay within the hybrid engine's ≤2 allocs/step
// budget — the wire codecs run through reusable scratch, and the table
// replicas are fixed slabs, so quantization adds no steady-state heap
// traffic.
func TestQuantizedStepZeroAlloc(t *testing.T) {
	cfg := benchreport.BenchStepConfig()
	cfg.TableDType = tensor.BF16
	ht, err := hybrid.New(cfg, hybrid.Config{
		Ranks: 2, LR: 0.05, Seed: 1,
		WireA2A:       collective.WireINT8,
		WireAllReduce: collective.WireINT8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
	batch := gen.NextBatch(128)
	for i := 0; i < 3; i++ {
		if _, _, err := ht.Step(batch); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(10, func() { ht.Step(batch) }); avg > 2 {
		t.Fatalf("quantized hybrid step allocates %.1f objects per step at steady state, want <= 2", avg)
	}
}

// TestNextBatchIntoRecyclesBuffers checks the batch-recycling path reuses
// storage across draws of the same batch size.
func TestNextBatchIntoRecyclesBuffers(t *testing.T) {
	cfg := core.Config{
		Name:          "recycle",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(2, 1000, 4),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
	gen := data.NewGenerator(cfg, 3, data.DefaultOptions())
	mb := gen.NextBatch(64)
	dense := mb.Dense
	labels := &mb.Labels[0]
	got := gen.NextBatchInto(64, mb)
	if got != mb || got.Dense != dense || &got.Labels[0] != labels {
		t.Fatal("NextBatchInto did not recycle the dense/label buffers")
	}
	if err := got.Validate(&cfg); err != nil {
		t.Fatalf("recycled batch invalid: %v", err)
	}
}
