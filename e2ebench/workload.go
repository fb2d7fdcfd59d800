package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/workload"
)

const (
	// ckptEvery is the delta-checkpoint interval of every workload, and the
	// granularity of its step count, so the last step always ends on a
	// durable checkpoint that final-NE evaluation and Verify can use.
	ckptEvery = 50
	// fullEvery compacts the delta chain into a full checkpoint every 8th
	// save, as cmd/dlrmtrain does.
	fullEvery = 8
	// learningRate is the AdaGrad rate of every workload. It is below
	// cmd/dlrmtrain's default of 0.05, at which the sparse model ends
	// some seeds' single epoch with NE near 1; at 0.01 every workload
	// ends near 0.9.
	learningRate = 0.01
	batchSize    = 256
	evalExamples = 8192
	evalBatch    = 512
	// An untraced run sets the workload up at least setupMin times and for
	// at least setupMinTime, at most setupMax times; setup_s is the median.
	setupMin     = 5
	setupMax     = 25
	setupMinTime = time.Second
)

// spec is one benchmark workload: a model shape and the path it is fed
// and trained along.
type spec struct {
	name string
	cfg  core.Config
	// ranks is the hybrid-parallel world size; 0 trains with the
	// single-process core.Trainer.
	ranks int
	dedup bool
	// elastic trains through hybrid.RunElastic from batches replayed out
	// of memory, with one scheduled rank kill late in the run.
	elastic bool
	wire    collective.WireFormat
	// stepsPerSec sets the run length: a run takes seconds x stepsPerSec
	// steps, rounded to whole checkpoint intervals, so its length is a
	// step count and final_ne is a deterministic function of the seed. It
	// is near the workload's untraced goodput on the reference host
	// (2-vCPU Xeon with AVX-512, Go 1.24), so the loop lasts about
	// --seconds; elastic_int8 runs longer, so that its recovery (about 3 s)
	// is a smaller share of the loop time.
	stepsPerSec float64
}

// sparseModel is the sparse-heavy shape: 26 tables of 100k rows (317 MiB
// of fp32 rows, far beyond the L2), pooling 20, small MLPs.
func sparseModel() core.Config {
	return core.Config{
		Name:          "sparse-d13-s26-h100k",
		DenseFeatures: 13,
		Sparse:        core.UniformSparse(26, 100000, 20),
		EmbeddingDim:  32,
		BottomMLP:     []int{64, 32},
		TopMLP:        []int{64},
		Interaction:   core.DotProduct,
	}
}

func workloads() []spec {
	bf16 := sparseModel()
	bf16.Name += "-bf16"
	bf16.TableDType = tensor.BF16
	return []spec{
		{
			// The dense MLPs take most of the step and nothing is
			// exchanged: a GEMM change shows its full effect here.
			name:        "dense_disk",
			cfg:         workload.TestSuiteConfig(256, 8, 256, 3, 10000),
			stepsPerSec: 15,
		},
		{
			// Embedding lookups, the all-to-all, RecD dedup and
			// checkpoint writes take about half the step.
			name:        "sparse_hybrid",
			cfg:         sparseModel(),
			ranks:       2,
			dedup:       true,
			stepsPerSec: 35,
		},
		{
			// Ingest is bypassed; the checkpoint layer is read as
			// well as written, through the world-rebuild path.
			name:        "elastic_int8",
			cfg:         bf16,
			ranks:       2,
			elastic:     true,
			wire:        collective.WireINT8,
			stepsPerSec: 30,
		},
	}
}

func findWorkload(name string) (spec, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// plan is the length of one run.
type plan struct {
	steps int
	every int // checkpoint interval
	// killAt is the step at which rank 1 dies (elastic only): half an
	// interval after the last-but-one checkpoint, so recovery restores a
	// delta chain and replays half an interval.
	killAt int
}

func (w spec) plan(seconds int, short bool) plan {
	if short {
		return plan{steps: 60, every: 20, killAt: 50}
	}
	n := int(math.Round(float64(seconds)*w.stepsPerSec/ckptEvery)) * ckptEvery
	n = max(n, 2*ckptEvery)
	return plan{steps: n, every: ckptEvery, killAt: n - ckptEvery/2}
}

// shrink returns the workload with tables 100x smaller, for the harness
// tests.
func (w spec) shrink() spec {
	sp := make([]core.SparseFeature, len(w.cfg.Sparse))
	copy(sp, w.cfg.Sparse)
	for i := range sp {
		sp[i].HashSize = max(100, sp[i].HashSize/100)
	}
	w.cfg.Sparse = sp
	w.cfg.Name += "-short"
	return w
}

// enoughSetups reports whether n setups that took total in all give a
// steady median.
func enoughSetups(n int, total time.Duration) bool {
	return n >= setupMax || n >= setupMin && total >= setupMinTime
}
