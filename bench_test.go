// Benchmarks regenerating each of the paper's tables and figures, plus
// ablations of the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package recsim

import (
	"testing"

	"repro/internal/benchreport"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchExperiment runs one paper artifact per iteration (quick mode for
// the heavy real-training/fleet studies).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Output == "" {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkFig1(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkAutotune(b *testing.B) { benchExperiment(b, "vic") }

// ---- substrate micro-benchmarks and DESIGN.md ablations ----

// BenchmarkSpecs runs every cmd/benchrun spec (benchreport.DefaultSpecs)
// as a sub-benchmark, so `go test -bench` and the committed BENCH reports
// measure the same fixtures: the train/hybrid/ingest steps, their traced
// companions, the GEMM and dense-layer kernels, and the checkpoint
// snapshots.
func BenchmarkSpecs(b *testing.B) {
	for _, s := range benchreport.DefaultSpecs("") {
		b.Run(s.Name, func(b *testing.B) {
			s.Fn(b.N)
			if s.ExamplesPerOp > 0 {
				b.ReportMetric(float64(s.ExamplesPerOp*b.N)/b.Elapsed().Seconds(), "examples/sec")
			}
		})
	}
}

// BenchmarkPerfModelEstimate measures the analytic model's cost.
func BenchmarkPerfModelEstimate(b *testing.B) {
	cfg := workload.DefaultTestSuite(1024, 64)
	plan, err := placement.Fit(cfg, hw.BigBasin(), placement.GPUMemory, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := perfmodel.Scenario{Cfg: cfg, Platform: hw.BigBasin(), Batch: 1600, Plan: plan}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.Estimate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: table-wise sharding balanced on bytes vs on lookups
// (§III-A2: access frequency does not correlate with size).
func BenchmarkAblationShardingBalance(b *testing.B) {
	cfg := workload.M3Prod()
	stats := make([]embedding.TableStat, cfg.NumSparse())
	for i, s := range cfg.TableStats() {
		stats[i] = embedding.TableStat{Index: s.Index, Bytes: s.Bytes, MeanPooled: s.MeanPooled}
	}
	b.ResetTimer()
	var byBytes, byLookups float64
	for i := 0; i < b.N; i++ {
		_, loadB := embedding.TableWiseGreedy(stats, 8, 0.0)
		_, loadL := embedding.TableWiseGreedy(stats, 8, 1.0)
		byBytes = embedding.MaxOverMean(loadB.Lookups)
		byLookups = embedding.MaxOverMean(loadL.Lookups)
	}
	b.ReportMetric(byBytes, "lookup-imbalance(bytes-balanced)")
	b.ReportMetric(byLookups, "lookup-imbalance(lookup-balanced)")
}

// Ablation: LRU caching opportunity on Zipf embedding traces (§III-A2).
func BenchmarkAblationLRUCacheHitRate(b *testing.B) {
	cfg := core.Config{
		Name:          "cache-bench",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 100000, 8),
		EmbeddingDim:  16,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
	gen := data.NewGenerator(cfg, 3, data.DefaultOptions())
	var batches []*core.MiniBatch
	for i := 0; i < 8; i++ {
		batches = append(batches, gen.NextBatch(128))
	}
	b.ResetTimer()
	var hit float64
	for i := 0; i < b.N; i++ {
		rates := trace.CacheOpportunity(batches, []int{4096})
		hit = rates[0]
	}
	b.ReportMetric(hit, "hit-rate@4096rows")
}

// Ablation: Hogwild flow overlap in the DES pipeline (serial vs 4 flows).
func BenchmarkAblationPipelineOverlap(b *testing.B) {
	run := func(flows int) float64 {
		res, err := pipelineRun(flows)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.ResetTimer()
	var serial, overlapped float64
	for i := 0; i < b.N; i++ {
		serial = run(1)
		overlapped = run(4)
	}
	b.ReportMetric(serial, "thpt-serial")
	b.ReportMetric(overlapped, "thpt-overlap4")
}
