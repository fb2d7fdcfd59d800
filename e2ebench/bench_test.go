package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/xrand"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(js, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestShortRunsEmitEveryMetric runs every workload of BENCHMARK.json in
// short mode, untraced and traced, and checks that each passes its
// correctness checks and emits exactly the metrics the file names.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload twice")
	}
	bf := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, rep, err := bench(options{workload: wl.Name, seed: 7, seconds: 1, trace: traced, dir: dir, short: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d problems=%v",
					wl.Name, traced, res.Correct, res.Failed, res.Attempted, rep.Problems)
			}
			if !traced {
				t.Logf("%s: final_ne %.4f", wl.Name, res.Metrics["final_ne"].Value)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestCheckLossRejectsNaN(t *testing.T) {
	w, err := findWorkload("dense_disk")
	if err != nil {
		t.Fatal(err)
	}
	w = w.shrink()
	tr := core.NewTrainer(core.NewModel(w.cfg, xrand.New(1)), core.TrainerConfig{Optimizer: core.OptAdagrad, LR: learningRate})
	fx, err := loadFixture(t.TempDir(), w, 3, w.plan(1, true))
	if err != nil {
		t.Fatal(err)
	}
	b := fx.eval[0]
	b.Dense.Data[0] = float32(math.NaN())

	m := &measured{}
	m.op("step", checkLoss(0, tr.Step(b)))
	if m.failed != 1 || m.correct() {
		t.Fatalf("NaN loss not rejected: failed=%d problems=%v", m.failed, m.problems)
	}
	for _, loss := range []float64{math.Inf(1), math.Inf(-1)} {
		if checkLoss(1, loss) == nil {
			t.Errorf("loss %v accepted", loss)
		}
	}
	if err := checkLoss(2, 0.47); err != nil {
		t.Errorf("finite loss rejected: %v", err)
	}
}

func TestTamperedCheckpointFailsVerify(t *testing.T) {
	w, err := findWorkload("sparse_hybrid")
	if err != nil {
		t.Fatal(err)
	}
	w = w.shrink()
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrainer(core.NewModel(w.cfg, xrand.New(1)), core.TrainerConfig{Optimizer: core.OptAdagrad, LR: learningRate})
	if _, err := tr.SaveCheckpoint(store, fullEvery); err != nil {
		t.Fatal(err)
	}
	m := &measured{}
	m.op("checkpoint verify", store.Verify())
	if !m.correct() {
		t.Fatalf("intact store rejected: %v", m.problems)
	}

	shards, err := filepath.Glob(filepath.Join(dir, "ck-*", "table-0000.full"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shard files in %s (%v)", dir, err)
	}
	b, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(shards[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	m.op("checkpoint verify", store.Verify())
	if m.failed != 1 || m.correct() {
		t.Fatalf("tampered checkpoint not rejected: failed=%d", m.failed)
	}
}

// TestFixtureCacheChecksManifest reuses a fixture only while it matches
// its MANIFEST.json, and regenerates it otherwise.
func TestFixtureCacheChecksManifest(t *testing.T) {
	w, err := findWorkload("sparse_hybrid")
	if err != nil {
		t.Fatal(err)
	}
	w = w.shrink()
	root, p := t.TempDir(), w.plan(1, true)
	fx, err := loadFixture(root, w, 5, p)
	if err != nil || fx.cached {
		t.Fatalf("first load: cached=%v err=%v", fx != nil && fx.cached, err)
	}
	if fx, err = loadFixture(root, w, 5, p); err != nil || !fx.cached {
		t.Fatalf("second load: cached=%v err=%v", fx != nil && fx.cached, err)
	}
	shard := filepath.Join(fx.train, "shard-00003.rsd")
	if err := os.Truncate(shard, 100); err != nil {
		t.Fatal(err)
	}
	if fx, err = loadFixture(root, w, 5, p); err != nil || fx.cached {
		t.Fatalf("load after truncation: cached=%v err=%v", fx != nil && fx.cached, err)
	}
	other, err := loadFixture(root, w, 6, p)
	if err != nil || other.cached || other.dir == fx.dir {
		t.Fatalf("another seed reused %s (cached=%v, err=%v)", fx.dir, other != nil && other.cached, err)
	}
}
