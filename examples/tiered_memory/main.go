// Tiered memory walkthrough: take M3prod — the production model whose
// 224 GB of embedding tables overflow Big Basin's GPU memory (§VI-A) —
// and show how the memtier subsystem stages it across the platform's
// memory hierarchy, what the hot-row cache buys, and how the tiered plan
// compares with the paper's remote-parameter-server fallback.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memtier"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/workload"
)

func main() {
	m3 := workload.ProdModels()[2]
	fmt.Println(core.Describe(m3))
	bb := hw.BigBasin()

	// 1. The platform's memory hierarchy, fastest to slowest.
	fmt.Println("\nBig Basin memory hierarchy:")
	for _, t := range bb.MemoryTiers(0) {
		fmt.Printf("  %s\n", t)
	}

	// 2. The flat strategies hit the capacity wall.
	if _, err := placement.Fit(m3, bb, placement.GPUMemory, 0); err != nil {
		fmt.Printf("\nGPUMemory: %v\n", err)
	}
	if _, err := placement.Fit(m3, bb, placement.SystemMemory, 0); err != nil {
		fmt.Printf("SystemMemory: %v\n", err)
	}

	// 3. The tiered strategy stages tables hottest-first and carves a
	//    hot-row cache out of leftover HBM.
	plan, err := placement.Fit(m3, bb, placement.Tiered, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntiered assignment:\n%s", plan.Tiered)
	fmt.Printf("HBM serves %.1f%% of lookups (resident hot tables + cache hits)\n",
		100*plan.HotFraction)

	// 4. Price it: the tiered plan vs the paper's remote-PS placement.
	const batch = 800
	estimate := func(strat placement.Strategy) perfmodel.Breakdown {
		plan, err := placement.Fit(m3, bb, strat, 0)
		if err != nil {
			panic(err)
		}
		bd, err := perfmodel.Estimate(perfmodel.Scenario{Cfg: m3, Platform: bb, Batch: batch, Plan: plan})
		if err != nil {
			panic(err)
		}
		return bd
	}
	tiered, remote := estimate(placement.Tiered), estimate(placement.RemoteCPU)
	fmt.Printf("\nremote-PS placement: %7.0f examples/s (bottleneck: %s)\n",
		remote.Throughput, remote.Bottleneck)
	fmt.Printf("tiered placement:    %7.0f examples/s (bottleneck: %s) — %.1fx\n",
		tiered.Throughput, tiered.Bottleneck, tiered.Throughput/remote.Throughput)

	// 5. BestPlacement is tier-aware: it now discovers this by itself.
	best, bd, err := perfmodel.BestPlacement(m3, bb, batch, perfmodel.DefaultCalibration())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nBestPlacement picks %v at %.0f examples/s\n", best.Strategy, bd.Throughput)

	// 6. Sweep the cache: more HBM given to the hot-row cache means a
	//    higher hit rate, until the resident hot tables start to spill.
	fmt.Println("\ncache-fraction sweep:")
	for _, frac := range []float64{-1, 0.05, 0.10, 0.20} {
		p, err := placement.FitTiered(m3, bb, placement.TieredOptions{
			Assign: memtier.AssignOptions{CacheFraction: frac},
		})
		if err != nil {
			panic(err)
		}
		label := fmt.Sprintf("%4.0f%%", 100*frac)
		if frac < 0 {
			label = "  off"
		}
		fmt.Printf("  cache %s: %9d rows, hit rate %.2f, HBM share %.2f\n",
			label, p.Tiered.CacheRows, p.Tiered.CacheHitRate, p.HotFraction)
	}
}
