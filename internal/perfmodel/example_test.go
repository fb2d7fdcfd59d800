package perfmodel_test

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/workload"
)

// ExampleEstimate estimates a training iteration of the §V test-suite
// model on Big Basin with embeddings in GPU memory.
func ExampleEstimate() {
	cfg := workload.DefaultTestSuite(1024, 16)
	bb := hw.BigBasin()
	plan, err := placement.Fit(cfg, bb, placement.GPUMemory, 0)
	if err != nil {
		panic(err)
	}
	bd, err := perfmodel.Estimate(perfmodel.Scenario{Cfg: cfg, Platform: bb, Batch: 1600, Plan: plan})
	if err != nil {
		panic(err)
	}
	fmt.Println(bd.Throughput > 0, bd.PowerUnits)
	// Output: true 7.3
}
