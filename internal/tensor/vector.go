package tensor

import (
	"math"

	"repro/internal/xrand"
)

// AddTo computes dst += src element-wise, unrolled 4× to amortize loop
// and bounds-check overhead.
func AddTo(dst, src []float32) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}

// ReLUGradInto masks the upstream gradient dy in place by the forward
// activation y: dy[i] is zeroed wherever y[i] <= 0. This is the fused
// backward kernel of a ReLU dense layer — one pass instead of a separate
// mask materialization. Lengths must match; the shorter bound is taken.
func ReLUGradInto(dy, y []float32) {
	if len(y) > len(dy) {
		y = y[:len(dy)]
	}
	for i, v := range y {
		if v <= 0 {
			dy[i] = 0
		}
	}
}

// AddTo2 computes dst += src0 + src1 in one pass, halving destination
// load/store traffic versus two AddTo calls (used by pooled embedding
// lookups).
func AddTo2(dst, src0, src1 []float32) {
	n := len(dst)
	if len(src0) < n {
		n = len(src0)
	}
	if len(src1) < n {
		n = len(src1)
	}
	dst, src0, src1 = dst[:n], src0[:n], src1[:n]
	i := 0
	for ; i+2 <= n; i += 2 {
		dst[i] += src0[i] + src1[i]
		dst[i+1] += src0[i+1] + src1[i+1]
	}
	if i < n {
		dst[i] += src0[i] + src1[i]
	}
}

// ScaleVec multiplies every element of x by a.
func ScaleVec(x []float32, a float32) {
	for i := range x {
		x[i] *= a
	}
}

// Sum returns the sum of all elements.
func Sum(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v
	}
	return s
}

// L2Norm returns the Euclidean norm of x.
func L2Norm(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// MaxAbs returns the largest absolute element value of x (0 for empty x).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// XavierInit fills m with Xavier/Glorot-uniform values appropriate for a
// layer with the given fan-in and fan-out.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *xrand.RNG) {
	bound := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float32() - 1) * bound
	}
}

// UniformInit fills m with uniform values in [-bound, bound].
func UniformInit(m *Matrix, bound float32, rng *xrand.RNG) {
	for i := range m.Data {
		m.Data[i] = (2*rng.Float32() - 1) * bound
	}
}

// NormalInit fills m with N(0, std²) values.
func NormalInit(m *Matrix, std float64, rng *xrand.RNG) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, std))
	}
}

// Sigmoid returns 1/(1+exp(-x)) computed in float64 for stability.
func Sigmoid(x float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}
