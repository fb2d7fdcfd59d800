// Production models: the Table II / Table III case study — port M1prod,
// M2prod, and M3prod from their production CPU clusters to a Big Basin
// GPU server and compare throughput and power efficiency.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func main() {
	// CPU setups from Table III (trainers + parameter servers).
	setups := map[string]struct{ trainers, sparsePS, densePS, gpuBatch int }{
		"M1prod": {6, 7, 1, 1600},
		"M2prod": {20, 15, 1, 3200},
		"M3prod": {8, 7, 1, 800},
	}
	for _, cfg := range workload.ProdModels() {
		fmt.Println(core.Describe(cfg))
		s := setups[cfg.Name]
		cpu, err := perfmodel.Estimate(perfmodel.Scenario{
			Cfg: cfg, Platform: hw.DualSocketCPU(), Batch: 200,
			NumTrainers: s.trainers, NumSparsePS: s.sparsePS, NumDensePS: s.densePS,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  CPU cluster (%d trainers, %d PS): %8.0f ex/s, %5.1f power units, bottleneck=%s\n",
			s.trainers, s.sparsePS+s.densePS, cpu.Throughput, cpu.PowerUnits, cpu.Bottleneck)
		for _, platform := range []hw.Platform{hw.BigBasin(), hw.Zion()} {
			plan, bd, err := perfmodel.BestPlacement(cfg, platform, s.gpuBatch, perfmodel.DefaultCalibration())
			if err != nil {
				fmt.Printf("  %s: %v\n", platform.Name, err)
				continue
			}
			fmt.Printf("  %-9s best placement %-12s: %8.0f ex/s (%.2fx CPU), power eff %.2fx\n",
				platform.Name, plan.Strategy, bd.Throughput, bd.Throughput/cpu.Throughput,
				bd.PowerEfficiency()/cpu.PowerEfficiency())
		}
		fmt.Println()
	}
	fmt.Println("Paper Table III: M1 2.25x / M2 0.85x / M3 0.67x GPU-vs-CPU throughput;")
	fmt.Println("the GPU wins for M1, breaks even for M2, and loses for M3, whose")
	fmt.Println("embedding tables exceed Big Basin's GPU memory.")
}
