// Package optim implements the optimizers used for recommendation model
// training at Facebook (§III-B6 of the paper): dense SGD and Adagrad for
// the MLP stacks, row-wise sparse Adagrad for embedding tables, and the
// learning-rate scaling/warmup schedules that large-batch training
// requires (§VI-C).
package optim

import (
	"math"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SGD is plain stochastic gradient descent over a fixed parameter set.
type SGD struct {
	LR     float32
	params []nn.Param
}

// NewSGD binds an SGD optimizer to params.
func NewSGD(params []nn.Param, lr float32) *SGD {
	return &SGD{LR: lr, params: params}
}

// Step applies p -= lr * grad for every bound parameter. Gradients are
// left untouched; the caller zeroes them between batches.
func (s *SGD) Step() {
	for _, p := range s.params {
		tensor.Axpy(-s.LR, p.Grad, p.Value)
	}
}

// Adagrad is the diagonal AdaGrad optimizer for dense parameters.
type Adagrad struct {
	LR    float32
	Eps   float32
	param []nn.Param
	accum [][]float32
}

// NewAdagrad binds an Adagrad optimizer to params.
func NewAdagrad(params []nn.Param, lr float32) *Adagrad {
	a := &Adagrad{LR: lr, Eps: 1e-8, param: params}
	for _, p := range params {
		a.accum = append(a.accum, make([]float32, len(p.Value)))
	}
	return a
}

// Step applies the AdaGrad update using accumulated squared gradients.
func (a *Adagrad) Step() {
	for pi, p := range a.param {
		acc := a.accum[pi]
		for i, g := range p.Grad {
			acc[i] += g * g
			p.Value[i] -= a.LR * g / (float32(math.Sqrt(float64(acc[i]))) + a.Eps)
		}
	}
}

// Accum exposes the per-parameter squared-gradient accumulators (aligned
// with the bound params). The slices alias live optimizer state: reading
// them snapshots it, writing into them restores it — the checkpoint
// export/import seam of internal/ckpt.
func (a *Adagrad) Accum() [][]float32 { return a.accum }

// SparseSGD applies per-row SGD updates to an embedding table from a
// SparseGrad accumulator.
type SparseSGD struct {
	LR    float32
	Table *embedding.Table
}

// Apply updates only the rows present in sg, in first-touch order. The
// update lands on the fp32 master row; SyncRow then re-quantizes the
// touched row into the table's reduced-precision replica (split-SGD —
// a no-op for fp32 tables).
func (s *SparseSGD) Apply(sg *embedding.SparseGrad) {
	sg.ForEach(func(ix int32, g []float32) {
		tensor.Axpy(-s.LR, g, s.Table.Weights.Row(int(ix)))
		s.Table.SyncRow(int(ix))
	})
}

// RowWiseAdagrad is the memory-efficient sparse AdaGrad variant used for
// production embedding tables: one accumulator scalar per row (the mean
// squared gradient of the row) instead of one per element, cutting
// optimizer state from O(rows*dim) to O(rows).
type RowWiseAdagrad struct {
	LR    float32
	Eps   float32
	Table *embedding.Table
	accum []float32 // one per row, lazily grown
}

// NewRowWiseAdagrad binds the optimizer to a table.
func NewRowWiseAdagrad(table *embedding.Table, lr float32) *RowWiseAdagrad {
	return &RowWiseAdagrad{
		LR:    lr,
		Eps:   1e-8,
		Table: table,
		accum: make([]float32, table.HashSize),
	}
}

// Accum exposes the per-row mean-squared-gradient accumulator (length
// HashSize). The slice aliases live optimizer state; internal/ckpt reads
// it when checkpointing and writes into it on restore.
func (r *RowWiseAdagrad) Accum() []float32 { return r.accum }

// Apply updates the rows present in sg using the row-wise accumulator,
// in first-touch order.
func (r *RowWiseAdagrad) Apply(sg *embedding.SparseGrad) {
	dim := float32(r.Table.Dim)
	sg.ForEach(func(ix int32, g []float32) {
		var sq float32
		for _, v := range g {
			sq += v * v
		}
		r.accum[ix] += sq / dim
		scale := -r.LR / (float32(math.Sqrt(float64(r.accum[ix]))) + r.Eps)
		tensor.Axpy(scale, g, r.Table.Weights.Row(int(ix)))
		// Split-SGD: accumulator and master stay fp32; only the lookup
		// replica is re-quantized (no-op for fp32 tables).
		r.Table.SyncRow(int(ix))
	})
}

// LinearScaledLR implements the linear batch-size scaling rule of Goyal
// et al.: when the batch grows by k, grow the learning rate by k. The
// paper's Fig 15 applies exactly this "manual tuning" before measuring
// the residual accuracy gap.
func LinearScaledLR(baseLR float64, baseBatch, batch int) float64 {
	if baseBatch <= 0 {
		panic("optim: baseBatch must be positive")
	}
	return baseLR * float64(batch) / float64(baseBatch)
}

// SqrtScaledLR is the gentler square-root scaling alternative.
func SqrtScaledLR(baseLR float64, baseBatch, batch int) float64 {
	if baseBatch <= 0 {
		panic("optim: baseBatch must be positive")
	}
	return baseLR * math.Sqrt(float64(batch)/float64(baseBatch))
}

// WarmupSchedule ramps the learning rate linearly from zero over
// WarmupIters iterations, then holds it at Base. Warmup iterations are one
// of the hyper-parameters the paper lists as quality-critical (§III).
type WarmupSchedule struct {
	Base        float64
	WarmupIters int
}

// At returns the learning rate for the given 0-based iteration.
func (w WarmupSchedule) At(iter int) float64 {
	if w.WarmupIters <= 0 || iter >= w.WarmupIters {
		return w.Base
	}
	return w.Base * float64(iter+1) / float64(w.WarmupIters)
}

// ClipByGlobalNorm rescales all gradients so their concatenated L2 norm is
// at most maxNorm, returning the pre-clip norm.
func ClipByGlobalNorm(params []nn.Param, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			tensor.ScaleVec(p.Grad, scale)
		}
	}
	return norm
}
