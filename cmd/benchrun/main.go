// Command benchrun measures the training hot path and writes a
// machine-readable BENCH_<timestamp>.json report, giving each PR a
// recorded perf trajectory (examples/sec, ns/op, allocs/op, and the
// tiled-vs-naive and other ablation speedups).
//
//	benchrun                        # full run (~1s per benchmark), report in .
//	benchrun -o reports -mintime 3s # steadier numbers, custom output dir
//	benchrun -quick                 # CI smoke mode (tens of ms per benchmark)
//	benchrun -bench gemm            # only benchmarks whose name contains "gemm"
//	benchrun -baseline BENCH_old.json  # adds <name>_vs_baseline speedups
//	benchrun -compare latest        # regression-gate the two newest reports
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchreport"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(out)
	dir := fs.String("o", ".", "directory for the BENCH_<timestamp>.json report")
	quick := fs.Bool("quick", false, "smoke mode: ~30ms per benchmark")
	mintime := fs.Duration("mintime", time.Second, "measurement floor per benchmark")
	bench := fs.String("bench", "", "only run benchmarks whose name contains this substring")
	baseline := fs.String("baseline", "", "prior BENCH_*.json whose ns/op become the baseline")
	compare := fs.String("compare", "", "diff two reports instead of benchmarking: old.json,new.json, or \"latest\" for the two newest BENCH_*.json; exits non-zero on regression past tolerance")
	trend := fs.String("trend", "", "render the examples/sec trajectory across every BENCH_*.json report in this directory (\".\" for the repo root); informational, never fails the build")
	note := fs.String("note", "", "free-form note recorded in the report")
	httpAddr := fs.String("telemetry.http", "", "serve /metrics, /debug/vars and /debug/pprof on this address while benchmarks run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare != "" {
		return runCompare(*compare, out)
	}
	if *trend != "" {
		return runTrend(*trend, out)
	}

	opts := benchreport.Options{MinTime: *mintime, Filter: *bench}
	if *quick {
		opts.MinTime = 30 * time.Millisecond
	}

	if *httpAddr != "" {
		// Expose run progress (and pprof for profiling a long benchmark
		// run) over the unified telemetry endpoint.
		reg := telemetry.NewRegistry()
		benchesDone := reg.Counter("benchrun/benchmarks_done")
		opts.AfterEach = func(string) { benchesDone.Inc() }
		srv, err := telemetry.Serve(*httpAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "telemetry: serving /metrics, /debug/vars, /debug/pprof on %s\n", srv.Addr)
	}

	fmt.Fprintf(out, "benchrun: measuring %s/benchmark, GOMAXPROCS=%d\n", opts.MinTime, runtime.GOMAXPROCS(0))
	rep := benchreport.Run(benchreport.DefaultSpecs(*bench), opts)

	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			return fmt.Errorf("benchrun: opening baseline: %w", err)
		}
		base, err := benchreport.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		rep.ApplyBaseline(base.BaselineNsPerOp(), "baseline "+filepath.Base(*baseline))
	}
	if *note != "" {
		if rep.Notes != "" {
			rep.Notes += "; "
		}
		rep.Notes += *note
	}

	rows := [][]string{{"benchmark", "ns/op", "allocs/op", "examples/sec"}}
	for _, b := range rep.Benchmarks {
		exs := ""
		if b.ExamplesPerSec > 0 {
			exs = metrics.F(b.ExamplesPerSec)
		}
		rows = append(rows, []string{b.Name, metrics.F(b.NsPerOp), metrics.F(b.AllocsPerOp), exs})
	}
	fmt.Fprint(out, metrics.Table(rows))

	if len(rep.Speedups) > 0 {
		keys := make([]string, 0, len(rep.Speedups))
		for k := range rep.Speedups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(out, "\nspeedups:")
		for _, k := range keys {
			fmt.Fprintf(out, "  %-32s %.2fx\n", k, rep.Speedups[k])
		}
	}

	path := filepath.Join(*dir, rep.Filename())
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchrun: creating report: %w", err)
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nreport written to %s\n", path)
	return nil
}

// runCompare is the regression gate: diff two committed reports under
// the default tolerance policy and fail (non-zero exit) on regression.
// The spec "latest" (optionally "latest:<dir>") selects the two newest
// committed BENCH_*.json reports automatically — the timestamped
// filenames sort chronologically, so no mtime inspection is needed.
func runCompare(spec string, out io.Writer) error {
	var oldPath, newPath string
	if spec == "latest" || strings.HasPrefix(spec, "latest:") {
		dir := strings.TrimPrefix(spec, "latest")
		dir = strings.TrimPrefix(dir, ":")
		if dir == "" {
			dir = "."
		}
		reports, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return err
		}
		if len(reports) < 2 {
			return fmt.Errorf("benchrun: -compare latest needs at least 2 BENCH_*.json reports in %s, found %d", dir, len(reports))
		}
		sort.Strings(reports)
		oldPath, newPath = reports[len(reports)-2], reports[len(reports)-1]
		fmt.Fprintf(out, "comparing %s -> %s\n", filepath.Base(oldPath), filepath.Base(newPath))
	} else {
		var ok bool
		oldPath, newPath, ok = strings.Cut(spec, ",")
		if !ok || oldPath == "" || newPath == "" {
			return fmt.Errorf("benchrun: -compare wants old.json,new.json or \"latest\", got %q", spec)
		}
	}
	d, err := benchreport.CompareFiles(oldPath, newPath, benchreport.DefaultTolerance())
	if err != nil {
		return err
	}
	fmt.Fprint(out, d.Render())
	if d.Regressed() {
		return fmt.Errorf("benchrun: %d benchmark(s) regressed past tolerance", len(d.Regressions))
	}
	return nil
}

// runTrend renders the perf trajectory across every committed
// BENCH_*.json report in dir: per-benchmark examples/sec over time as a
// sparkline, plus the worst adjacent-report drop. Informational only —
// the gate is -compare, which diffs a single pair under tolerance; the
// trend view exists to spot slow drift that stays inside each
// individual diff's noise floor.
func runTrend(dir string, out io.Writer) error {
	reports, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(reports) < 2 {
		return fmt.Errorf("benchrun: -trend needs at least 2 BENCH_*.json reports in %s, found %d", dir, len(reports))
	}
	sort.Strings(reports) // timestamped names sort chronologically
	names := make([]string, len(reports))
	series := make(map[string][]float64) // benchmark -> examples/sec per report (0 = absent)
	var order []string
	for i, path := range reports {
		names[i] = filepath.Base(path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := benchreport.ReadJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("benchrun: reading %s: %w", path, err)
		}
		for _, b := range rep.Benchmarks {
			if b.ExamplesPerSec <= 0 {
				continue
			}
			if _, ok := series[b.Name]; !ok {
				order = append(order, b.Name)
				series[b.Name] = make([]float64, len(reports))
			}
			series[b.Name][i] = b.ExamplesPerSec
		}
	}

	fmt.Fprintf(out, "bench trend: %d reports, %s -> %s (examples/sec)\n\n",
		len(reports), names[0], names[len(names)-1])
	rows := [][]string{{"benchmark", "first", "latest", "trend", "worst drop"}}
	worstName, worstPct := "", 0.0
	var worstFrom, worstTo string
	for _, name := range order {
		vals := series[name]
		var present []float64
		for _, v := range vals {
			if v > 0 {
				present = append(present, v)
			}
		}
		// Worst drop between chronologically adjacent reports that both
		// carry the benchmark (specs added mid-history skip the gap).
		drop, from, to, prev := 0.0, "", "", -1
		for i, v := range vals {
			if v <= 0 {
				continue
			}
			if prev >= 0 {
				if pct := 100 * (v - vals[prev]) / vals[prev]; pct < drop {
					drop, from, to = pct, names[prev], names[i]
				}
			}
			prev = i
		}
		dropCell := "-"
		if drop < 0 {
			dropCell = fmt.Sprintf("%.1f%%", drop)
		}
		rows = append(rows, []string{name, metrics.F(present[0]),
			metrics.F(present[len(present)-1]), metrics.Sparkline(present), dropCell})
		if drop < worstPct {
			worstName, worstPct, worstFrom, worstTo = name, drop, from, to
		}
	}
	fmt.Fprint(out, metrics.Table(rows))
	if worstName != "" {
		fmt.Fprintf(out, "\nworst step-to-step drop: %s %.1f%% (%s -> %s)\n",
			worstName, worstPct, worstFrom, worstTo)
	} else {
		fmt.Fprintln(out, "\nno adjacent-report drop anywhere: every trajectory is monotonic")
	}
	return nil
}
