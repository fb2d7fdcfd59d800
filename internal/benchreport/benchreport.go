// Package benchreport runs the repository's performance benchmarks
// programmatically and renders machine-readable reports
// (BENCH_<timestamp>.json) so the perf trajectory of the training hot
// path is measured, committed, and comparable across PRs.
//
// The harness is self-contained (no testing.Benchmark dependency) so the
// per-benchmark measurement time is controllable: the CI smoke mode runs
// every benchmark in tens of milliseconds, while the default mode spends
// about a second per entry for stable numbers. Paired naive/optimized
// specs (tiled vs naive GEMM, recycled vs fresh batches) are reduced to
// named speedups in the report.
package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Spec is one benchmark: Fn must execute iters iterations of the
// measured operation.
type Spec struct {
	Name          string
	ExamplesPerOp int // >0: report examples/sec using this per-op count
	Fn            func(iters int)
}

// Result is one measured benchmark.
type Result struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	ExamplesPerSec float64 `json:"examples_per_sec,omitempty"`
}

// Report is the full benchmark run, serialized as BENCH_<timestamp>.json.
type Report struct {
	SchemaVersion int                `json:"schema_version"`
	Timestamp     string             `json:"timestamp"`
	GoVersion     string             `json:"go_version"`
	GOOS          string             `json:"goos"`
	GOARCH        string             `json:"goarch"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	NumCPU        int                `json:"num_cpu"`
	Benchmarks    []Result           `json:"benchmarks"`
	Speedups      map[string]float64 `json:"speedups,omitempty"`
	// Baseline carries reference numbers from a prior report (or a
	// recorded pre-optimization run) keyed by benchmark name; Speedups
	// gains "<name>_vs_baseline" entries for every matching benchmark.
	Baseline map[string]float64 `json:"baseline_ns_per_op,omitempty"`
	Notes    string             `json:"notes,omitempty"`
}

// Options tunes a run.
type Options struct {
	// MinTime is the per-benchmark measurement floor (default 1s;
	// quick/smoke runs use a few tens of ms).
	MinTime time.Duration
	// Filter, when non-empty, selects only specs whose name contains it.
	Filter string
	// AfterEach, when non-nil, is called with each spec's name as its
	// measurement finishes (progress metering for long runs).
	AfterEach func(name string)
}

// speedupPairs names the ablation ratios derived from paired specs:
// speedup = ns/op(denominator spec) / ns/op(numerator spec).
var speedupPairs = []struct{ key, fast, slow string }{
	{"gemm_tiled_vs_naive", "gemm/tiled_256", "gemm/naive_256"},
	{"next_batch_into_vs_fresh", "data/next_batch_into", "data/next_batch"},
	// Incremental checkpoint vs full snapshot: the stall reduction the
	// SparseGrad-driven delta path buys at a save point.
	{"ckpt_delta_vs_full", "ckpt_snapshot/delta", "ckpt_snapshot/full"},
	// Inverted pairs (ratio ~1.0): the traced step over the untraced
	// step, i.e. the span tracer's whole-step overhead. Acceptance: the
	// ratio stays below 1.03 (tracing costs < 3%).
	{"telemetry_overhead_single", "train_step", "train_step_traced"},
	{"telemetry_overhead_hybrid", "hybrid_step", "hybrid_step_traced"},
	// Mixed precision: the bf16-table + compressed-wire step over the
	// fp32 step, and the int8-compressed pooled exchange over the fp32
	// exchange on the same payload.
	{"hybrid_bf16_vs_fp32", "hybrid_step_bf16", "hybrid_step"},
	{"a2a_int8_vs_fp32", "a2a_int8_wire", "a2a_fp32_wire"},
}

// Run measures every spec and assembles the report.
func Run(specs []Spec, opts Options) Report {
	if opts.MinTime <= 0 {
		opts.MinTime = time.Second
	}
	rep := Report{
		SchemaVersion: 1,
		Timestamp:     time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Speedups:      map[string]float64{},
	}
	type pending struct {
		spec Spec
		res  Result
		best time.Duration
	}
	var runs []pending
	for _, s := range specs {
		if opts.Filter != "" && !strings.Contains(s.Name, opts.Filter) {
			continue
		}
		res, elapsed := calibrate(s, opts.MinTime)
		runs = append(runs, pending{spec: s, res: res, best: elapsed})
		if opts.AfterEach != nil {
			opts.AfterEach(s.Name)
		}
	}
	// The remaining timed windows run round-robin across all specs, so
	// slow environmental drift (thermal throttling, noisy neighbors on a
	// shared VM) lands on every spec roughly equally instead of biasing
	// whichever spec happened to run later. The speedup pairs — ratios of
	// two specs' ns/op — depend on this: measured back-to-back, a few
	// percent of drift reads as a few percent of fake (anti-)speedup.
	for w := 1; w < measureWindows; w++ {
		for i := range runs {
			start := time.Now()
			runs[i].spec.Fn(runs[i].res.Iterations)
			if e := time.Since(start); e < runs[i].best {
				runs[i].best = e
			}
		}
	}
	byName := map[string]Result{}
	for i := range runs {
		r := runs[i].res
		r.NsPerOp = float64(runs[i].best.Nanoseconds()) / float64(r.Iterations)
		if runs[i].spec.ExamplesPerOp > 0 && runs[i].best > 0 {
			r.ExamplesPerSec = float64(runs[i].spec.ExamplesPerOp) * float64(r.Iterations) / runs[i].best.Seconds()
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
		byName[r.Name] = r
	}
	for _, p := range speedupPairs {
		fast, okF := byName[p.fast]
		slow, okS := byName[p.slow]
		if okF && okS && fast.NsPerOp > 0 {
			rep.Speedups[p.key] = slow.NsPerOp / fast.NsPerOp
		}
	}
	return rep
}

// ApplyBaseline records reference ns/op numbers (keyed by benchmark
// name) and derives "<name>_vs_baseline" speedups for every benchmark
// present in both.
func (r *Report) ApplyBaseline(baseline map[string]float64, note string) {
	r.Baseline = baseline
	if r.Speedups == nil {
		r.Speedups = map[string]float64{}
	}
	for _, b := range r.Benchmarks {
		if ref, ok := baseline[b.Name]; ok && b.NsPerOp > 0 {
			r.Speedups[b.Name+"_vs_baseline"] = ref / b.NsPerOp
		}
	}
	if note != "" {
		if r.Notes != "" {
			r.Notes += "; "
		}
		r.Notes += note
	}
}

// Filename returns the canonical report file name for the run.
func (r Report) Filename() string {
	ts := r.Timestamp
	clean := make([]rune, 0, len(ts))
	for _, c := range ts {
		switch c {
		case '-', ':':
		default:
			clean = append(clean, c)
		}
	}
	return "BENCH_" + string(clean) + ".json"
}

// WriteJSON serializes the report with stable indentation.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report produced by WriteJSON.
func ReadJSON(rd io.Reader) (Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return Report{}, fmt.Errorf("benchreport: decoding report: %w", err)
	}
	return r, nil
}

// BaselineNsPerOp extracts the name→ns/op map of a report, for use as a
// later run's baseline.
func (r Report) BaselineNsPerOp() map[string]float64 {
	m := make(map[string]float64, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		m[b.Name] = b.NsPerOp
	}
	return m
}

// measureWindows is how many independent timed windows each spec gets
// (the calibration window plus measureWindows-1 round-robin re-runs in
// Run); the minimum ns/op across them is reported. A single window on a
// loaded (or single-CPU) machine folds scheduler preemption into the
// number — pairs like the telemetry overhead ratios then swing far more
// than the effect being measured. The per-window minimum is the classic
// noise filter: interference only ever adds time.
const measureWindows = 3

// calibrate times one spec's first window: warm up once, then grow the
// iteration count until the measured window crosses minTime (the
// testing-package calibration strategy, reimplemented so MinTime is
// controllable). It returns the Result for that window plus its elapsed
// time; Run re-times the same iteration count more times and keeps the
// fastest window. Allocation counters come from runtime.MemStats deltas
// around the timed window.
func calibrate(s Spec, minTime time.Duration) (Result, time.Duration) {
	s.Fn(1) // warmup: faults pages, sizes lazy buffers, starts pools
	n := 1
	var ms0, ms1 runtime.MemStats
	for {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		s.Fn(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if elapsed >= minTime || n >= 1<<30 {
			res := Result{
				Name:        s.Name,
				Iterations:  n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
				BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
			}
			if s.ExamplesPerOp > 0 && elapsed > 0 {
				res.ExamplesPerSec = float64(s.ExamplesPerOp) * float64(n) / elapsed.Seconds()
			}
			return res, elapsed
		}
		// Aim 20% past the floor; bound growth like the testing package.
		next := n
		if elapsed > 0 {
			next = int(1.2 * float64(minTime) * float64(n) / float64(elapsed.Nanoseconds()))
		}
		if next <= n {
			next = n + 1
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}
