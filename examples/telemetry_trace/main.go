// Telemetry walkthrough: trace a short hybrid-parallel training run with
// the unified span tracer, print the observed-vs-predicted attribution
// report and ASCII timeline, snapshot the unified metrics registry, and
// export the trace as Chrome trace_event JSON (load trace.json in
// chrome://tracing or https://ui.perfetto.dev).
//
// With -validate <file> it instead checks an existing trace file against
// the Chrome trace_event golden schema and exits non-zero on mismatch —
// the CI smoke mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

func main() {
	validate := flag.String("validate", "", "validate an existing Chrome trace JSON file instead of running the demo")
	flag.Parse()
	if *validate != "" {
		if err := validateTrace(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "invalid trace:", err)
			os.Exit(1)
		}
		fmt.Println(*validate, "matches the Chrome trace_event schema")
		return
	}
	if err := demo(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func demo() error {
	cfg := core.Config{
		Name:          "telemetry-demo",
		DenseFeatures: 32,
		Sparse:        core.UniformSparse(8, 5000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{64},
		TopMLP:        []int{64, 32},
		Interaction:   core.DotProduct,
	}
	fmt.Println(core.Describe(cfg))
	const iters, batch, ranks = 40, 128, 2

	// 1. One tracer and one registry for the whole run. The hybrid
	// trainer writes rank spans onto shards [0, ShardCount) and its step
	// counters into the registry.
	hc := hybrid.Config{Ranks: ranks, LR: 0.05, Seed: 1, Overlap: true}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(hc.ShardCount(), 4096)
	hc.Registry, hc.Trace, hc.TraceShard = reg, tracer, 0

	ht, err := hybrid.New(cfg, hc)
	if err != nil {
		return err
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	for i := 0; i < iters; i++ {
		ht.Step(gen.NextBatch(batch))
	}

	// 2. Attribution: observed per-phase step time, joined against the
	// analytic perfmodel prediction for the same model and batch.
	snap := tracer.Snapshot()
	attr := telemetry.Attribute(snap)
	predicted := map[telemetry.Phase]float64(nil)
	bb := hw.BigBasin()
	if plan, err := placement.Fit(cfg, bb, placement.GPUMemory, 0); err == nil {
		if bd, err := perfmodel.Estimate(perfmodel.Scenario{Cfg: cfg, Platform: bb, Batch: batch, Plan: plan}); err == nil {
			predicted = perfmodel.PredictedPhases(bd)
		}
	}
	fmt.Println("\nattribution (observed vs analytic perfmodel):")
	fmt.Print(attr.Render(predicted))
	fmt.Println("\ntimeline:")
	fmt.Print(snap.Timeline(72))

	// 3. The unified registry: every subsystem meter in one snapshot.
	fmt.Println("\nregistry snapshot:")
	fmt.Print(reg.Snapshot().Render())

	// 4. Chrome trace export.
	f, err := os.Create("trace.json")
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote trace.json (%d spans) — load it in chrome://tracing\n", len(snap.Spans))
	return validateTrace("trace.json")
}

// validateTrace checks a file against the Chrome trace_event golden
// schema: a traceEvents array of "M" thread_name metadata and "X"
// complete events carrying name/cat/ts/dur/pid/tid.
func validateTrace(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		return fmt.Errorf("not JSON: %w", err)
	}
	if len(trace.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}
	var meta, complete int
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			for _, key := range []string{"name", "cat", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[key]; !ok {
					return fmt.Errorf("complete event missing %q: %v", key, ev)
				}
			}
		default:
			return fmt.Errorf("unexpected event type %v", ev["ph"])
		}
	}
	if meta == 0 || complete == 0 {
		return fmt.Errorf("want both metadata and complete events, got %d/%d", meta, complete)
	}
	return nil
}
