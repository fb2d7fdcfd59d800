package benchreport

import (
	"strings"
	"testing"
	"time"
)

func TestRunProducesReportWithSpeedups(t *testing.T) {
	rep := Run(DefaultSpecs(""), Options{MinTime: 5 * time.Millisecond})
	if len(rep.Benchmarks) != len(DefaultSpecs("")) {
		t.Fatalf("measured %d benchmarks, want %d", len(rep.Benchmarks), len(DefaultSpecs("")))
	}
	byName := map[string]Result{}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 || b.Iterations <= 0 {
			t.Errorf("%s: degenerate measurement %+v", b.Name, b)
		}
		byName[b.Name] = b
	}
	ts, ok := byName["train_step"]
	if !ok {
		t.Fatal("train_step missing from report")
	}
	if ts.ExamplesPerSec <= 0 {
		t.Errorf("train_step examples/sec = %v, want > 0", ts.ExamplesPerSec)
	}
	for _, key := range []string{"gemm_tiled_vs_naive", "next_batch_into_vs_fresh"} {
		if rep.Speedups[key] <= 0 {
			t.Errorf("speedup %q missing or non-positive: %v", key, rep.Speedups[key])
		}
	}
}

func TestRunFilter(t *testing.T) {
	rep := Run(DefaultSpecs("gemm"), Options{MinTime: time.Millisecond})
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("filter 'gemm' measured %d benchmarks, want 2", len(rep.Benchmarks))
	}
}

func TestReportRoundTripAndBaseline(t *testing.T) {
	rep := Run(DefaultSpecs("hash"), Options{MinTime: time.Millisecond})
	rep.ApplyBaseline(map[string]float64{"embedding/hash_index": rep.Benchmarks[0].NsPerOp * 2}, "synthetic baseline")
	sp := rep.Speedups["embedding/hash_index_vs_baseline"]
	if sp < 1.9 || sp > 2.1 {
		t.Errorf("baseline speedup = %v, want ~2", sp)
	}

	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != 1 || len(got.Benchmarks) != len(rep.Benchmarks) || got.Notes != "synthetic baseline" {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	name := got.Filename()
	if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") || strings.ContainsAny(name, "-:") {
		t.Errorf("Filename = %q", name)
	}
}
