// Fleet characterization: embedding-access analysis (Fig 6/7 and the
// §III-A2 caching opportunity) on a generated workload, plus the Fig 5
// utilization study on the discrete-event pipeline.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	// Access-pattern characterization on a production-shaped model.
	cfg := core.Config{
		Name:          "fleet-example",
		DenseFeatures: 32,
		Sparse: []core.SparseFeature{
			{Name: "small-hot", HashSize: 1000, MeanPooled: 20, MaxPooled: 32},
			{Name: "mid", HashSize: 100000, MeanPooled: 6, MaxPooled: 32},
			{Name: "big-cold", HashSize: 2000000, MeanPooled: 1, MaxPooled: 4},
		},
		EmbeddingDim: 16,
		BottomMLP:    []int{32},
		TopMLP:       []int{32},
		Interaction:  core.Concat,
	}
	gen := data.NewGenerator(cfg, 5, data.DefaultOptions())
	col := trace.NewCollector(cfg)
	var batches []*core.MiniBatch
	examples := 0
	for i := 0; i < 30; i++ {
		b := gen.NextBatch(128)
		col.RecordBatch(b)
		batches = append(batches, b)
		examples += 128
	}
	fmt.Println("Per-table access profiles (Fig 6/7 style):")
	for _, p := range col.Profiles(examples) {
		fmt.Printf("  %-9s rows=%-8d accesses=%-7d mean/example=%5.1f top-1%%-share=%.2f\n",
			p.Name, p.HashSize, p.Accesses, p.MeanPerExample, p.Top1PctShare)
	}
	fmt.Printf("size-frequency correlation: %+.2f (paper: weak/none)\n\n",
		col.SizeFrequencyCorrelation())

	fmt.Println("LRU caching opportunity (§III-A2):")
	caps := []int{256, 1024, 4096, 16384}
	for i, hr := range trace.CacheOpportunity(batches, caps) {
		fmt.Printf("  %6d cached rows -> hit rate %.2f\n", caps[i], hr)
	}
	fmt.Println()

	// Fig 5: utilization distributions across simulated runs.
	study := fleet.DefaultUtilizationStudy(30, 9)
	dist, err := study.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("Fig 5 study (%d runs at %d trainers / %d PS):\n", 30, study.Trainers, study.SparsePS)
	fmt.Println(metrics.Table(dist.Summaries()))
}
