// Hybrid-parallel training walkthrough: run the same workload through the
// single-process trainer and the synchronous hybrid-parallel engine
// (data-parallel MLPs via ring all-reduce, model-parallel embedding
// shards via all-to-all), show that the loss curves agree, and read the
// paper-style operator breakdown plus the collective byte meters against
// their analytic volumes.
package main

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/perfmodel"
	"repro/internal/xrand"
)

func main() {
	cfg := core.Config{
		Name:          "hybrid-demo",
		DenseFeatures: 32,
		Sparse:        core.UniformSparse(8, 5000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{64},
		TopMLP:        []int{64, 32},
		Interaction:   core.DotProduct,
	}
	fmt.Println(core.Describe(cfg))

	const iters, batch = 60, 128

	// 1. Single-process reference run.
	single := core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	refLoss := make([]float64, iters)
	for i := range refLoss {
		refLoss[i] = single.Step(gen.NextBatch(batch))
	}

	// 2. The same seed and batch stream on 4 synchronous ranks, with the
	// collectives priced by Big Basin's NVLink fabric.
	link := collective.LinkFor(hw.BigBasin())
	ht, err := hybrid.New(cfg, hybrid.Config{
		Ranks: 4, LR: 0.05, Seed: 1, Overlap: true, Link: link,
	})
	if err != nil {
		panic(err)
	}
	defer ht.Close()

	gen = data.NewGenerator(cfg, 7, data.DefaultOptions())
	var last hybrid.StepBreakdown
	var worst float64
	for i := 0; i < iters; i++ {
		loss, bd, _ := ht.Step(gen.NextBatch(batch))
		if d := math.Abs(loss - refLoss[i]); d > worst {
			worst = d
		}
		last = bd
	}
	fmt.Printf("\nloss parity vs single process over %d iters: max |delta| = %.2e\n", iters, worst)

	// 3. The paper-style operator breakdown of the last step.
	fmt.Printf("\nlast step: %.2fms total\n", 1e3*last.Step)
	fmt.Printf("  compute      %.2fms\n", 1e3*last.Compute)
	fmt.Printf("  all-to-all   %.2fms (pooled embedding exchange)\n", 1e3*last.AllToAll)
	fmt.Printf("  all-reduce   %.2fms (dense grads, bucketed + overlapped)\n", 1e3*last.AllReduce)
	fmt.Printf("  exposed comm %.2fms\n", 1e3*last.Exposed)

	// 4. Observed collective traffic vs the analytic volumes.
	fmt.Printf("\nper-iteration collective traffic (observed vs analytic):\n")
	fmt.Printf("  all-to-all %d B vs %.0f B\n",
		last.AllToAllBytes, perfmodel.HybridAllToAllBytes(cfg, batch, ht.Ranks()))
	fmt.Printf("  all-reduce %d B vs %.0f B\n",
		last.AllReduceBytes, perfmodel.HybridAllReduceBytes(cfg, ht.Ranks()))
	fmt.Printf("  modeled wire time on %s: a2a %.3fms, all-reduce %.3fms\n",
		link.Name, 1e3*last.ModelAllToAllSec, 1e3*last.ModelAllReduceSec)

	// 5. Held-out quality from the assembled eval view (a Fork shares the
	// training stream's hidden teacher, so the task is the same).
	eval := core.Evaluate(ht.EvalModel(), gen.Fork(999).EvalSet(4, 256))
	fmt.Printf("\nheld-out: NE %.4f, accuracy %.4f over %d examples\n",
		eval.NE, eval.Accuracy, eval.Examples)
}
