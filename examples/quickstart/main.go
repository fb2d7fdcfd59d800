// Quickstart: build a small DLRM, train it on synthetic click data, and
// evaluate normalized entropy — the five-minute tour of the training stack.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/xrand"
)

func main() {
	cfg := core.Config{
		Name:          "quickstart",
		DenseFeatures: 16,
		Sparse: []core.SparseFeature{
			{Name: "user_id", HashSize: 5000, MeanPooled: 1, MaxPooled: 1},
			{Name: "item_history", HashSize: 20000, MeanPooled: 8, MaxPooled: 32},
			{Name: "page_category", HashSize: 300, MeanPooled: 2, MaxPooled: 8},
		},
		EmbeddingDim: 16,
		BottomMLP:    []int{64},
		TopMLP:       []int{64, 32},
		Interaction:  core.DotProduct,
	}
	fmt.Println(core.Describe(cfg))

	model := core.NewModel(cfg, xrand.New(42))
	trainer := core.NewTrainer(model, core.TrainerConfig{LR: 0.05})
	gen := data.NewGenerator(cfg, 43, data.DefaultOptions())

	for i := 0; i < 300; i++ {
		loss := trainer.Step(gen.NextBatch(128))
		if (i+1)%100 == 0 {
			fmt.Printf("iter %3d  training loss %.4f\n", i+1, loss)
		}
	}

	eval := core.Evaluate(model, gen.EvalSet(8, 256))
	fmt.Printf("held-out: logloss %.4f  NE %.4f  accuracy %.4f\n",
		eval.LogLoss, eval.NE, eval.Accuracy)
	if eval.NE < 1 {
		fmt.Println("NE < 1: the model beats the base-rate predictor.")
	}
}
