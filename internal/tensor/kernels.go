package tensor

// Row kernels under every GEMM variant: axpyRows serves the forward and
// weight-gradient GEMMs, dot2/dot4/Dot the input-gradient GEMM, and Axpy
// and Dot the optimizer and the interaction. Each has a pure-Go form here
// and, on amd64 CPUs with AVX2 and FMA, a Go-assembly form
// (kernels_amd64.s) selected once at package init; the unsuffixed names
// dispatch between them (kernels_amd64.go, kernels_generic.go). The
// pure-Go forms are the fallback on other architectures, CPUs and
// race-detector builds, and the reference the assembly is tested against.
//
// Go's compiler does not auto-vectorize, so the scalar loops are shaped
// for instruction-level parallelism instead: axpy2Go/axpy4Go fold two or
// four rank-1 row updates into one pass over the destination (cutting its
// load/store traffic), and the dot kernels run independent accumulator
// chains so they are not serialized on the float add latency.

// dotGo returns the inner product of a and b over their common length.
// Four independent accumulator chains: a single-accumulator float32 dot
// is serialized on the ~4-cycle add latency, which caps it at a quarter
// of the core's multiply-add throughput.
func dotGo(a, b []float32) float32 {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpyGo computes y += alpha*x over the common length, unrolled 4× to
// amortize loop and bounds-check overhead (iterations are independent,
// so no extra accumulators are needed).
func axpyGo(alpha float32, x, y []float32) {
	if len(x) > len(y) {
		x = x[:len(y)]
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// axpy2Go computes y += a0*x0 + a1*x1 in one pass.
func axpy2Go(a0 float32, x0 []float32, a1 float32, x1 []float32, y []float32) {
	n := min(len(y), min(len(x0), len(x1)))
	x0, x1, y = x0[:n], x1[:n], y[:n]
	i := 0
	for ; i+2 <= n; i += 2 {
		y[i] += a0*x0[i] + a1*x1[i]
		y[i+1] += a0*x0[i+1] + a1*x1[i+1]
	}
	if i < n {
		y[i] += a0*x0[i] + a1*x1[i]
	}
}

// axpy4Go computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 in one pass: four
// rank-1 updates per destination load/store.
func axpy4Go(a0 float32, x0 []float32, a1 float32, x1 []float32,
	a2 float32, x2 []float32, a3 float32, x3 []float32, y []float32) {
	n := min(min(len(y), min(len(x0), len(x1))), min(len(x2), len(x3)))
	x0, x1, x2, x3, y = x0[:n], x1[:n], x2[:n], x3[:n], y[:n]
	i := 0
	for ; i+2 <= n; i += 2 {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
		y[i+1] += a0*x0[i+1] + a1*x1[i+1] + a2*x2[i+1] + a3*x3[i+1]
	}
	if i < n {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// dot4Go returns (a·b0, a·b1, a·b2, a·b3) computed in one pass over a:
// eight independent accumulator chains sharing each pair of a loads.
func dot4Go(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	n := min(len(a), min(min(len(b0), len(b1)), min(len(b2), len(b3))))
	a, b0, b1, b2, b3 = a[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		a0, a1 := a[i], a[i+1]
		s00 += a0 * b0[i]
		s01 += a1 * b0[i+1]
		s10 += a0 * b1[i]
		s11 += a1 * b1[i+1]
		s20 += a0 * b2[i]
		s21 += a1 * b2[i+1]
		s30 += a0 * b3[i]
		s31 += a1 * b3[i+1]
	}
	r0, r1, r2, r3 = s00+s01, s10+s11, s20+s21, s30+s31
	if i < n {
		r0 += a[i] * b0[i]
		r1 += a[i] * b1[i]
		r2 += a[i] * b2[i]
		r3 += a[i] * b3[i]
	}
	return
}

// dot2Go returns (a·b0, a·b1) computed in one pass over a.
func dot2Go(a, b0, b1 []float32) (float32, float32) {
	n := min(len(a), min(len(b0), len(b1)))
	a, b0, b1 = a[:n], b0[:n], b1[:n]
	var s00, s01, s10, s11 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		a0, a1 := a[i], a[i+1]
		s00 += a0 * b0[i]
		s01 += a1 * b0[i+1]
		s10 += a0 * b1[i]
		s11 += a1 * b1[i+1]
	}
	r0, r1 := s00+s01, s10+s11
	if i < n {
		r0 += a[i] * b0[i]
		r1 += a[i] * b1[i]
	}
	return r0, r1
}

// axpyRowsGo computes y += Σ_t c[t]·b[off[t] : off[t]+len(y)], four
// rows per destination pass. Every b row must hold len(y) elements.
func axpyRowsGo(y, c []float32, off []int, b []float32) {
	n := len(y)
	row := func(t int) []float32 { return b[off[t] : off[t]+n] }
	t := 0
	for ; t+4 <= len(c); t += 4 {
		axpy4Go(c[t], row(t), c[t+1], row(t+1), c[t+2], row(t+2), c[t+3], row(t+3), y)
	}
	for ; t+2 <= len(c); t += 2 {
		axpy2Go(c[t], row(t), c[t+1], row(t+1), y)
	}
	if t < len(c) {
		axpyGo(c[t], row(t), y)
	}
}
