package core

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/telemetry"
)

// OptimizerKind selects the dense-side optimizer.
type OptimizerKind string

const (
	// OptSGD uses plain SGD for MLPs and embeddings.
	OptSGD OptimizerKind = "sgd"
	// OptAdagrad uses AdaGrad for MLPs and row-wise AdaGrad for
	// embeddings, the production default.
	OptAdagrad OptimizerKind = "adagrad"
)

// TrainerConfig holds the hyper-parameters of a single-node trainer.
type TrainerConfig struct {
	Optimizer   OptimizerKind
	LR          float64 // dense learning rate
	SparseLR    float64 // embedding learning rate (defaults to LR)
	WarmupIters int     // linear LR warmup length
}

// Trainer couples a model with its optimizers and runs mini-batch steps.
type Trainer struct {
	Model *Model
	cfg   TrainerConfig

	sgd     *optim.SGD
	adagrad *optim.Adagrad
	sparseS []*optim.SparseSGD
	sparseA []*optim.RowWiseAdagrad
	sched   optim.WarmupSchedule
	iter    int
	gradBuf []float32     // reusable logit-gradient buffer
	dirty   []*ckpt.Dirty // per-table touched rows since the last checkpoint

	trace      *telemetry.Tracer
	traceShard int
	rec        *telemetry.FlightRecorder
}

// NewTrainer builds a trainer for the model.
func NewTrainer(m *Model, cfg TrainerConfig) *Trainer {
	if cfg.LR <= 0 {
		panic("core: trainer LR must be positive")
	}
	if cfg.SparseLR <= 0 {
		cfg.SparseLR = cfg.LR
	}
	if cfg.Optimizer == "" {
		cfg.Optimizer = OptAdagrad
	}
	t := &Trainer{Model: m, cfg: cfg, sched: optim.WarmupSchedule{Base: cfg.LR, WarmupIters: cfg.WarmupIters}}
	switch cfg.Optimizer {
	case OptSGD:
		t.sgd = optim.NewSGD(m.DenseParams(), float32(cfg.LR))
		for _, tab := range m.Tables {
			t.sparseS = append(t.sparseS, &optim.SparseSGD{LR: float32(cfg.SparseLR), Table: tab})
		}
	case OptAdagrad:
		t.adagrad = optim.NewAdagrad(m.DenseParams(), float32(cfg.LR))
		for _, tab := range m.Tables {
			t.sparseA = append(t.sparseA, optim.NewRowWiseAdagrad(tab, float32(cfg.SparseLR)))
		}
	default:
		panic(fmt.Sprintf("core: unknown optimizer %q", cfg.Optimizer))
	}
	for _, tab := range m.Tables {
		t.dirty = append(t.dirty, ckpt.NewDirty(tab.HashSize))
	}
	return t
}

// Iter returns the number of steps taken.
func (t *Trainer) Iter() int { return t.iter }

// SetTrace points the trainer (and its model) at a tracer shard. Step
// then records a PhaseStep envelope plus the interior phase spans —
// lookup, dense fwd/bwd, loss, sparse scatter, optimizer — all from the
// trainer goroutine, which must be the shard's only writer. A nil tracer
// turns tracing off.
func (t *Trainer) SetTrace(tr *telemetry.Tracer, shard int) {
	t.trace, t.traceShard = tr, shard
	t.Model.Trace, t.Model.TraceShard = tr, shard
}

// SetRecorder attaches a flight recorder: Step then feeds it one
// StepSample per step (loss, batch size, wall time) from the trainer
// goroutine. Nil detaches. Steady-state sampling stays allocation-free.
func (t *Trainer) SetRecorder(fr *telemetry.FlightRecorder) { t.rec = fr }

// Step runs one forward/backward/update over the batch and returns the
// batch's training loss. At steady state (fixed batch size) it performs
// zero heap allocations; every scratch buffer is owned by the trainer or
// the model and reused across steps.
func (t *Trainer) Step(b *MiniBatch) float64 {
	var t0 int64
	if t.rec != nil {
		t0 = telemetry.Now()
	}
	stepTok := t.trace.Begin(telemetry.PhaseStep)
	logits := t.Model.Forward(b) // records emb_lookup + dense_fwd spans
	if cap(t.gradBuf) < len(logits) {
		t.gradBuf = make([]float32, len(logits))
	}
	grad := t.gradBuf[:len(logits)]
	tok := t.trace.Begin(telemetry.PhaseLoss)
	loss := nn.BCEWithLogits(logits, b.Labels, grad)

	// ZeroGrad is gradient-buffer preparation: charge it to the backward
	// pass (Backward itself records dense_bwd + sparse_scatter).
	tok = t.trace.Next(t.traceShard, tok, telemetry.PhaseDenseBwd)
	t.Model.ZeroGrad()
	t.trace.End(t.traceShard, tok)
	sparseGrads := t.Model.Backward(grad)

	lr := t.sched.At(t.iter)
	scale := float32(lr / t.cfg.LR)
	tok = t.trace.Begin(telemetry.PhaseOptimizer)
	switch t.cfg.Optimizer {
	case OptSGD:
		t.sgd.LR = float32(lr)
		t.sgd.Step()
		tok = t.trace.Next(t.traceShard, tok, telemetry.PhaseSparseScatter)
		for i, s := range t.sparseS {
			s.LR = float32(t.cfg.SparseLR) * scale
			s.Apply(sparseGrads[i])
			t.dirty[i].Mark(sparseGrads[i].RowIDs())
		}
	case OptAdagrad:
		t.adagrad.LR = float32(lr)
		t.adagrad.Step()
		tok = t.trace.Next(t.traceShard, tok, telemetry.PhaseSparseScatter)
		for i, s := range t.sparseA {
			s.LR = float32(t.cfg.SparseLR) * scale
			s.Apply(sparseGrads[i])
			t.dirty[i].Mark(sparseGrads[i].RowIDs())
		}
	}
	t.trace.End(t.traceShard, tok)
	t.iter++
	t.trace.End(t.traceShard, stepTok)
	if t.rec != nil {
		now := telemetry.Now()
		t.rec.ObserveStep(telemetry.StepSample{
			Step:        int64(t.iter - 1),
			ClockNS:     now,
			Loss:        loss,
			Examples:    int64(b.Batch()),
			StepNS:      now - t0,
			SlowestRank: -1,
		})
	}
	return loss
}

// EvalResult aggregates model-quality metrics over an evaluation set.
type EvalResult struct {
	LogLoss  float64
	NE       float64 // normalized entropy (§VI-C); lower is better
	Accuracy float64
	Examples int
}

// Evaluate scores the model on the given batches without training.
func Evaluate(m *Model, batches []*MiniBatch) EvalResult {
	var preds, labels []float32
	for _, b := range batches {
		preds = append(preds, m.Predict(b)...)
		labels = append(labels, b.Labels...)
	}
	return EvalResult{
		LogLoss:  nn.LogLoss(preds, labels),
		NE:       nn.NormalizedEntropy(preds, labels),
		Accuracy: nn.Accuracy(preds, labels, 0.5),
		Examples: len(labels),
	}
}

// TotalLookups sums the access counters across all tables.
func (m *Model) TotalLookups() uint64 {
	var n uint64
	for _, t := range m.Tables {
		n += t.Lookups()
	}
	return n
}

// EmbeddingBytes returns the actual embedding footprint of this model.
func (m *Model) EmbeddingBytes() int64 {
	var b int64
	for _, t := range m.Tables {
		b += t.Bytes()
	}
	return b
}
