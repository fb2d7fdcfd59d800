// Placement study: evaluate every embedding placement strategy (Fig 8)
// for M2prod on Big Basin and Zion, reproducing the Fig 14 comparison.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/workload"
)

func main() {
	m2 := workload.ProdModels()[1]
	fmt.Println(core.Describe(m2))
	fmt.Println()

	strategies := []placement.Strategy{
		placement.GPUMemory, placement.SystemMemory, placement.RemoteCPU, placement.Hybrid,
	}
	for _, platform := range []hw.Platform{hw.BigBasin(), hw.Zion()} {
		fmt.Printf("%s:\n", platform.Name)
		for _, strat := range strategies {
			plan, err := placement.Fit(m2, platform, strat, 8)
			if err != nil {
				fmt.Printf("  %-12s infeasible: %v\n", strat, err)
				continue
			}
			bd, err := estimate(m2, platform, strat)
			if err != nil {
				fmt.Printf("  %-12s error: %v\n", strat, err)
				continue
			}
			where := describePlan(plan)
			fmt.Printf("  %-12s %9.0f ex/s  bottleneck=%-9s %s\n",
				strat, bd.Throughput, bd.Bottleneck, where)
		}
		fmt.Println()
	}
	fmt.Println("Paper Fig 14: Big Basin is fastest with tables in GPU memory;")
	fmt.Println("Zion (no GPU-GPU fabric in the prototype) is fastest with tables")
	fmt.Println("in its 2TB / 1TB/s system memory.")
}

// estimate prices a 3200-example iteration under the strategy's default
// plan (the remote-PS fleet auto-sized).
func estimate(cfg core.Config, platform hw.Platform, strat placement.Strategy) (perfmodel.Breakdown, error) {
	plan, err := placement.Fit(cfg, platform, strat, 0)
	if err != nil {
		return perfmodel.Breakdown{}, err
	}
	return perfmodel.Estimate(perfmodel.Scenario{Cfg: cfg, Platform: platform, Batch: 3200, Plan: plan})
}

func describePlan(p placement.Plan) string {
	switch {
	case p.RemotePS > 0:
		return fmt.Sprintf("(%d remote PS)", p.RemotePS)
	case p.EmbGPUs > 0 && p.HostBytes > 0:
		return fmt.Sprintf("(%d GPUs + host spill)", p.EmbGPUs)
	case p.EmbGPUs > 0:
		return fmt.Sprintf("(%d GPUs hold tables)", p.EmbGPUs)
	default:
		return "(host memory)"
	}
}
