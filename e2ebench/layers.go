package main

import (
	"fmt"

	"repro/internal/telemetry"
)

// minCoverage is the share of step wall time the traced phases must
// account for; below it the per-layer table no longer explains the step.
const minCoverage = 95

func checkCoverage(pct float64) error {
	if !(pct >= minCoverage) {
		return fmt.Errorf("traced phases cover %.2f%% of step wall time, want >= %d%%", pct, minCoverage)
	}
	return nil
}

// perLayer derives the per-layer metrics of traced pass m. Step phases
// come from the tracer spans the trainers record (averaged per rank-step
// by telemetry.Attribute); step breakdowns, collective and checkpoint
// volumes from the registry meters the layers keep; ingest numbers from
// the pipeline's own meters. A layer a workload does not exercise reads
// 0. base is the untraced pass of the same workload and seed; the step
// tail and peak RSS come from it.
func perLayer(w spec, base, m *measured) map[string]metric {
	attr := telemetry.Attribute(m.trace)
	per := attr.PerStepNS()
	phaseMS := func(ph telemetry.Phase) float64 { return per[ph] / 1e6 }
	reg := m.metrics
	steps := float64(max(reg.Get("hybrid/steps"), 1))
	perStepMS := func(name string) float64 { return float64(reg.Get(name)) / steps / 1e6 }

	// Dense work: 3x the forward multiply-adds (backward costs 2x
	// forward), over the summed forward+backward time of every rank.
	denseNS := (per[telemetry.PhaseDenseFwd] + per[telemetry.PhaseDenseBwd]) * float64(attr.TotalSteps)
	flops := 3 * float64(w.cfg.MLPFLOPsPerExample()) * float64(len(m.stepTimes)*batchSize)
	lookupNS := per[telemetry.PhaseEmbLookup] * float64(attr.TotalSteps)
	rowBytes := float64(w.cfg.EmbeddingDim * w.cfg.DTypeOf(0).Bytes())

	var wait int64
	for r := range w.ranks {
		wait += reg.Get(fmt.Sprintf("collective/rank%d/wait_ns", r))
	}
	straggler := 0.0
	if w.ranks > 0 {
		straggler = telemetry.Imbalance(m.trace, reg).Index
	}
	overhead := 0.0
	if bl := base.loop.Seconds(); bl > 0 {
		overhead = 100 * (m.loop.Seconds() - bl) / bl
	}
	hybridMS := func(name string) float64 {
		if w.ranks == 0 {
			return 0
		}
		return perStepMS(name)
	}
	collectiveB := func(name string) float64 {
		return float64(reg.Get(name)) / steps
	}
	ingestWait := 0.0
	if !w.elastic {
		ingestWait = 1e3 * m.ingest.StarvedSeconds / float64(len(m.stepTimes))
	}
	return map[string]metric{
		"nn.dense_fwd_ms":              {phaseMS(telemetry.PhaseDenseFwd), "ms"},
		"nn.dense_bwd_ms":              {phaseMS(telemetry.PhaseDenseBwd), "ms"},
		"nn.gflops":                    {safeDiv(flops, denseNS), "GFLOP/s"},
		"embedding.lookup_ms":          {phaseMS(telemetry.PhaseEmbLookup), "ms"},
		"embedding.scatter_ms":         {phaseMS(telemetry.PhaseSparseScatter), "ms"},
		"embedding.lookup_gb_s":        {safeDiv(float64(m.lookups)*rowBytes, lookupNS), "GB/s"},
		"optim.dense_ms":               {phaseMS(telemetry.PhaseOptimizer), "ms"},
		"collective.a2a_ms":            {hybridMS("hybrid/a2a_ns"), "ms"},
		"collective.allreduce_ms":      {hybridMS("hybrid/ar_ns"), "ms"},
		"collective.a2a_bytes":         {collectiveB("collective/alltoall/bytes"), "B"},
		"collective.allreduce_bytes":   {collectiveB("collective/allreduce/bytes"), "B"},
		"collective.wait_ms":           {float64(wait) / steps / 1e6, "ms"},
		"hybrid.exposed_comm_ms":       {hybridMS("hybrid/exposed_ns"), "ms"},
		"hybrid.compute_ms":            {hybridMS("hybrid/compute_ns"), "ms"},
		"hybrid.straggler_index":       {straggler, "ratio"},
		"hybrid.recovery_s":            {m.recovery.Seconds(), "s"},
		"ckpt.save_ms":                 {float64(reg.Get("ckpt/save_ns")) / 1e6, "ms"},
		"ckpt.save_mb":                 {float64(reg.Get("ckpt/bytes_written")) / 1e6, "MB"},
		"ckpt.restore_ms":              {float64(reg.Get("ckpt/restore_ns")) / 1e6, "ms"},
		"ckpt.restore_mb":              {float64(reg.Get("ckpt/bytes_restored")) / 1e6, "MB"},
		"ingest.wait_ms":               {ingestWait, "ms"},
		"ingest.read_mb_s":             {m.ingest.ReadMBps(), "MiB/s"},
		"ingest.dedup_ratio":           {m.ingest.DedupRatio(), "ratio"},
		"ingest.starved_frac":          {m.ingest.StarvationFrac(), "ratio"},
		"trainer.step_p95_ms":          {ms(quantile(base.stepTimes, 0.95)), "ms"},
		"process.peak_rss_mb":          {base.peakRSSMB, "MB"},
		"telemetry.overhead_pct":       {overhead, "%"},
		"telemetry.phase_coverage_pct": {100 * attr.Coverage(), "%"},
		"telemetry.step_wall_ms":       {attr.StepWallNS() / 1e6, "ms"},
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
