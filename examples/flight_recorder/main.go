// Flight-recorder walkthrough: train a small DLRM with the recorder
// attached, corrupt one mini-batch mid-run so the EWMA loss-spike
// detector fires, and inspect what the trigger left behind — the
// structured finding, the ASCII dashboard of the per-step time-series,
// and the atomically-dumped blackbox-<step>/ bundle (trace window,
// metrics snapshot, series tail, doctor verdict).
//
// With -validate the demo runs headless and checks the bundle against
// the "recsim-blackbox/1" schema — manifest fields, member files, JSON
// parseability, non-empty doctor report — exiting non-zero on any
// mismatch. CI runs this as the bundle-format smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

func main() {
	validate := flag.Bool("validate", false, "headless run: assert the dumped bundle matches the recsim-blackbox/1 schema")
	flag.Parse()
	if err := demo(*validate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func demo(validate bool) error {
	dir, err := os.MkdirTemp("", "flightrec-demo")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := core.Config{
		Name:          "flightrec-demo",
		DenseFeatures: 16,
		Sparse:        core.UniformSparse(4, 2000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   core.DotProduct,
	}
	const iters, batch, spikeAt = 40, 64, 30
	if !validate {
		fmt.Println(core.Describe(cfg))
		fmt.Printf("training %d steps, corrupting the batch at step %d\n\n", iters, spikeAt)
	}

	// Tracer + registry feed the recorder its per-phase and meter
	// deltas; the bundle directory arms trigger dumps.
	tracer := telemetry.NewTracer(1, 4096)
	reg := telemetry.NewRegistry()
	fr, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
		Dir: dir, Tracer: tracer, Registry: reg,
	})
	if err != nil {
		return err
	}

	tr := core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
	tr.SetTrace(tracer, 0)
	tr.SetRecorder(fr)
	gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
	for step := 0; step < iters; step++ {
		mb := gen.NextBatch(batch)
		if step == spikeAt {
			// Labels far outside {0,1}: the BCE loss jumps an order of
			// magnitude for exactly one step.
			for i := range mb.Labels {
				mb.Labels[i] = 8
			}
		}
		tr.Step(mb)
	}

	findings := fr.Findings()
	bundles := fr.Bundles()
	if !validate {
		fmt.Printf("dashboard:\n%s\n", fr.Timeseries().Dashboard(64))
		for _, f := range findings {
			fmt.Printf("finding: %s\n", f)
		}
		for _, b := range bundles {
			fmt.Printf("bundle:  %s\n", b)
		}
	}

	// The checks below are the -validate contract; the interactive demo
	// runs them too so it never prints a success story about a broken
	// bundle.
	if len(findings) == 0 || findings[0].Kind != telemetry.AnomalyLossSpike {
		return fmt.Errorf("flight_recorder: expected a loss_spike finding, got %+v", findings)
	}
	if got := findings[0].Step; got != spikeAt {
		return fmt.Errorf("flight_recorder: spike localized to step %d, injected at %d", got, spikeAt)
	}
	if len(bundles) != 1 {
		return fmt.Errorf("flight_recorder: expected one bundle, got %v", bundles)
	}
	if err := validateBundle(bundles[0], spikeAt); err != nil {
		return err
	}
	if validate {
		fmt.Printf("flight_recorder: bundle %s validates against recsim-blackbox/1\n", filepath.Base(bundles[0]))
	} else {
		fmt.Println("\nbundle validates against recsim-blackbox/1")
	}
	return nil
}

// validateBundle asserts the on-disk layout and schema of one
// blackbox-<step>/ bundle.
func validateBundle(dir string, step int64) error {
	raw, err := os.ReadFile(filepath.Join(dir, "bundle.json"))
	if err != nil {
		return fmt.Errorf("flight_recorder: manifest: %w", err)
	}
	var man telemetry.BundleManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("flight_recorder: manifest parse: %w", err)
	}
	if man.Schema != "recsim-blackbox/1" {
		return fmt.Errorf("flight_recorder: schema %q, want recsim-blackbox/1", man.Schema)
	}
	if man.Step != step {
		return fmt.Errorf("flight_recorder: manifest step %d, want %d", man.Step, step)
	}
	if man.Trigger.Detail == "" {
		return fmt.Errorf("flight_recorder: manifest trigger has no detail")
	}
	for _, name := range []string{"timeseries.json", "metrics.json", "trace.json", "doctor.txt"} {
		listed := false
		for _, f := range man.Files {
			if f == name {
				listed = true
				break
			}
		}
		if !listed {
			return fmt.Errorf("flight_recorder: manifest does not list %s (files: %v)", name, man.Files)
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("flight_recorder: %w", err)
		}
		if len(raw) == 0 {
			return fmt.Errorf("flight_recorder: %s is empty", name)
		}
		if filepath.Ext(name) == ".json" && !json.Valid(raw) {
			return fmt.Errorf("flight_recorder: %s is not valid JSON", name)
		}
	}

	// The series tail must end at the triggering step, with the spike
	// sample carrying the anomalous loss the detector saw.
	raw, err = os.ReadFile(filepath.Join(dir, "timeseries.json"))
	if err != nil {
		return err
	}
	var doc struct {
		Samples []telemetry.StepSample `json:"samples"`
		Marks   []telemetry.SeriesMark `json:"marks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("flight_recorder: timeseries parse: %w", err)
	}
	if n := len(doc.Samples); n == 0 || doc.Samples[n-1].Step != step {
		return fmt.Errorf("flight_recorder: series tail does not end at step %d (%d samples)", step, len(doc.Samples))
	}
	if len(doc.Marks) == 0 || doc.Marks[0].Kind != "loss_spike" {
		return fmt.Errorf("flight_recorder: finding not mirrored as a series mark: %+v", doc.Marks)
	}
	return nil
}
