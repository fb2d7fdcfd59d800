package placement_test

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/placement"
	"repro/internal/workload"
)

// ExampleFit shows the capacity wall of §VI-A: M3prod cannot be placed
// in Big Basin GPU memory.
func ExampleFit() {
	m3 := workload.ProdModels()[2]
	_, err := placement.Fit(m3, hw.BigBasin(), placement.GPUMemory, 0)
	fmt.Println(err != nil)
	plan, err := placement.Fit(m3, hw.Zion(), placement.SystemMemory, 0)
	fmt.Println(err == nil, plan.Strategy)
	// Output:
	// true
	// true SystemMemory
}
