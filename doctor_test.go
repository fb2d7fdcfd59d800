package recsim

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// TestDoctorClassifiesRegimes drives the performance doctor through
// three synthetically forced regimes and checks each verdict: a
// dense-heavy run on a perfect wire is compute-bound, the same model on
// a crippled 1 MB/s link is communication-bound (the Link-priced model
// time dominates even though the in-process collectives move at memory
// speed), and a trainer starved by a throttled reader is reader-bound.
func TestDoctorClassifiesRegimes(t *testing.T) {
	t.Run("compute", func(t *testing.T) {
		rep := diagnoseHybrid(t, computeHeavyConfig(), collective.PerfectLink())
		if rep.Verdict != telemetry.VerdictCompute {
			t.Fatalf("verdict %q, want %q\n%s", rep.Verdict, telemetry.VerdictCompute, rep.Render())
		}
	})

	t.Run("comm", func(t *testing.T) {
		slow := collective.Link{Name: "slow-wire", BandwidthBps: 1e6, LatencySec: 100e-6}
		rep := diagnoseHybrid(t, computeHeavyConfig(), slow)
		if rep.Verdict != telemetry.VerdictAllToAll && rep.Verdict != telemetry.VerdictAllReduce {
			t.Fatalf("verdict %q, want all-to-all- or all-reduce-bound\n%s", rep.Verdict, rep.Render())
		}
	})

	t.Run("reader", func(t *testing.T) {
		cfg := core.Config{
			Name:          "doctor-reader",
			DenseFeatures: 8,
			Sparse:        core.UniformSparse(2, 100, 5),
			EmbeddingDim:  8,
			BottomMLP:     []int{16},
			TopMLP:        []int{16},
			Interaction:   core.DotProduct,
		}
		dir := t.TempDir()
		if err := data.NewGenerator(cfg, 3, data.DefaultOptions()).WriteShards(dir, 2, 256); err != nil {
			t.Fatal(err)
		}
		ds, err := ingest.OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		iOpt := ingest.Options{
			BatchSize: 64, Readers: 1, Seed: 1,
			ReadBandwidth: 200e3, // ~200 KB/s: each shard read stalls the feed
		}
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(1+iOpt.ShardCount(), 4096)
		iOpt.Registry, iOpt.Trace, iOpt.TraceShard = reg, tr, 1
		pipe, err := ingest.Open(ds, cfg, iOpt)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		trn := core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
		trn.SetTrace(tr, 0)
		for i := 0; i < 8; i++ {
			mb, err := pipe.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			trn.Step(mb)
			pipe.Recycle(mb)
		}
		rep := telemetry.Diagnose(telemetry.DoctorInput{Snap: tr.Snapshot(), Metrics: reg.Snapshot()})
		if rep.Verdict != telemetry.VerdictReader {
			t.Fatalf("verdict %q, want %q\n%s", rep.Verdict, telemetry.VerdictReader, rep.Render())
		}
	})
}

// computeHeavyConfig is small in embeddings but heavy in dense FLOPs, so
// on a fast wire the step is compute-dominated.
func computeHeavyConfig() core.Config {
	return core.Config{
		Name:          "doctor-compute",
		DenseFeatures: 32,
		Sparse:        core.UniformSparse(2, 200, 5),
		EmbeddingDim:  8,
		BottomMLP:     []int{128, 128},
		TopMLP:        []int{128, 64},
		Interaction:   core.DotProduct,
	}
}

// diagnoseHybrid runs a traced 2-rank hybrid trainer on the given link
// for a few steps and returns the doctor's report.
func diagnoseHybrid(t *testing.T, cfg core.Config, link collective.Link) telemetry.DoctorReport {
	t.Helper()
	hc := hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1, Overlap: true, Link: link}
	reg := telemetry.NewRegistry()
	hc.Registry = reg
	hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
	ht, err := hybrid.New(cfg, hc)
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	batch := data.NewGenerator(cfg, 2, data.DefaultOptions()).NextBatch(64)
	for i := 0; i < 10; i++ {
		if _, _, err := ht.Step(batch); err != nil {
			t.Fatal(err)
		}
	}
	return telemetry.Diagnose(telemetry.DoctorInput{Snap: hc.Trace.Snapshot(), Metrics: reg.Snapshot()})
}
