// Batch-size accuracy: a miniature Fig 15 — train the same model with
// growing batch sizes under a fixed sample budget and linear LR scaling,
// and watch the residual accuracy gap grow.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/xrand"
)

func main() {
	cfg := core.Config{
		Name:          "batchsweep",
		DenseFeatures: 16,
		Sparse: []core.SparseFeature{
			{Name: "a", HashSize: 2000, MeanPooled: 4, MaxPooled: 16},
			{Name: "b", HashSize: 2000, MeanPooled: 4, MaxPooled: 16},
		},
		EmbeddingDim: 16,
		BottomMLP:    []int{32},
		TopMLP:       []int{32},
		Interaction:  core.DotProduct,
	}
	base := data.NewGenerator(cfg, 7, data.DefaultOptions())
	const budget = 60000
	const refBatch, refLR = 200, 0.05

	train := func(batch int, lr float64) core.EvalResult {
		m := core.NewModel(cfg, xrand.New(11))
		tr := core.NewTrainer(m, core.TrainerConfig{Optimizer: "sgd", LR: lr, WarmupIters: 20})
		gen := base.Fork(int64(batch))
		for i := 0; i < budget/batch; i++ {
			tr.Step(gen.NextBatch(batch))
		}
		return core.Evaluate(m, base.Fork(999).EvalSet(8, 256))
	}

	ref := train(refBatch, refLR)
	fmt.Printf("reference batch %d: accuracy %.4f (NE %.4f)\n\n", refBatch, ref.Accuracy, ref.NE)
	fmt.Println("batch  scaled-lr  accuracy  loss-vs-ref(%)")
	for _, b := range []int{400, 800, 1600, 2400} {
		lr := refLR * float64(b) / refBatch // linear scaling rule
		r := train(b, lr)
		fmt.Printf("%5d   %7.3f   %.4f   %+.3f\n", b, lr, r.Accuracy, (ref.Accuracy-r.Accuracy)*100)
	}
	fmt.Println("\nPaper Fig 15: even after manual LR re-tuning, the accuracy gap")
	fmt.Println("grows with batch size (~0.2% at batch 2400) — often intolerable")
	fmt.Println("for well-calibrated recommendation models.")
}
