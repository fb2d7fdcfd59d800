// Command e2ebench is the repository's end-to-end training benchmark. It
// runs one named workload through the public APIs of ingest, core/hybrid,
// ckpt and collective in a single process, the way cmd/dlrmtrain wires
// them, checks that the outputs are correct, and prints the metrics named
// in BENCHMARK.json. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload dense_disk --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced and then traced, and
// prints the per-layer metrics of the traced run. The last line of
// standard output is the JSON result; a report with the host fingerprint
// and the per-layer table precedes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // fixtures and checkpoints
	short    bool   // tables 100x smaller and 60 steps, for the harness tests
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	Host     host              `json:"host"`
	Workload string            `json:"workload"`
	Model    string            `json:"model"`
	Batch    int               `json:"batch"`
	Steps    int               `json:"steps"`
	Traced   bool              `json:"traced"`
	Fixture  string            `json:"fixture"`
	FixtureS float64           `json:"fixture_s"`
	Samples  map[string]int    `json:"samples"`
	Metrics  map[string]metric `json:"metrics"`
	Problems []string          `json:"problems,omitempty"`
	ElapsedS float64           `json:"elapsed_s"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 15, "nominal run length; sets the step count")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "e2ebench"), "work directory for fixtures and checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "e2ebench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "e2ebench: --seconds must be positive, got %d\n", o.seconds)
		return 2
	}
	o.trace = *traceFlag == 1
	res, rep, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintf(stdout, "%s\n%s\n", js, line)
		}
	}
	if err != nil { // a non-finite metric
		fmt.Fprintln(stderr, "e2ebench: encoding result:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func bench(o options) (*result, *report, error) {
	begin := time.Now()
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	if o.short {
		w = w.shrink()
	}
	p := w.plan(o.seconds, o.short)
	fxStart := time.Now()
	fx, err := loadFixture(filepath.Join(o.dir, "fixtures"), w, o.seed, p)
	if err != nil {
		return nil, nil, fmt.Errorf("fixture: %w", err)
	}
	fixtureState := "generated"
	if fx.cached {
		fixtureState = "cached"
	}
	rep := &report{
		Host: fingerprint(o.seed), Workload: w.name, Model: w.cfg.Name, Batch: batchSize,
		Steps: p.steps, Traced: o.trace, Fixture: fixtureState + " " + fx.dir,
		FixtureS: time.Since(fxStart).Seconds(),
	}
	work := filepath.Join(o.dir, "work")
	var m *measured
	if !o.trace {
		if m, err = runPass(w, p, fx, work, o.seed, true, nil); err != nil {
			return nil, nil, err
		}
		rep.Metrics = endToEnd(w, p, m)
	} else {
		base, err := runPass(w, p, fx, work, o.seed, false, nil)
		if err != nil {
			return nil, nil, err
		}
		t := newTele(w)
		if m, err = runPass(w, p, fx, work, o.seed, false, t); err != nil {
			return nil, nil, err
		}
		rep.Metrics = perLayer(w, base, m)
		m.check(checkCoverage(rep.Metrics["telemetry.phase_coverage_pct"].Value))
		m.problems = append(m.problems, base.problems...)
		m.attempted += base.attempted
		m.failed += base.failed
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, nil, err
	}
	rep.Samples = map[string]int{"steps": len(m.stepTimes), "setups": len(m.setups)}
	rep.Problems = m.problems
	rep.ElapsedS = time.Since(begin).Seconds()
	res := &result{
		Correct:   m.correct(),
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   rep.Metrics,
	}
	return res, rep, nil
}

// endToEnd is what a user of the trainer sees. examples_per_s is goodput:
// its loop time includes ingest waits, checkpoint stalls and, on
// elastic_int8, recovery and replay. The step-time tail and the peak RSS
// are reported with the per-layer metrics instead: on the reference host
// they spread across runs by more than any bound they could carry.
func endToEnd(w spec, p plan, m *measured) map[string]metric {
	return map[string]metric{
		"examples_per_s": {float64(p.steps*batchSize) / m.loop.Seconds(), "1/s"},
		"step_p50_ms":    {ms(quantile(m.stepTimes, 0.50)), "ms"},
		"final_ne":       {m.ne, "ratio"},
		"setup_s":        {quantile(m.setups, 0.5).Seconds(), "s"},
	}
}

// quantile is the nearest-rank q-quantile.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
