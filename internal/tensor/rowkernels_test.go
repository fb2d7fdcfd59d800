package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The row kernels dispatch to AVX2+FMA assembly on capable amd64 CPUs and
// to their pure-Go forms elsewhere, including -race builds. These tests
// hold the dispatching kernels and the pure-Go forms to the same float64
// reference, so a plain run checks the assembly and a -race run checks
// the fallback; the GEMM-level tests in kernels_test.go cover the tiled
// kernels on whichever path the build selected.

const (
	maxRowLen = 67 // every vector block width (64/32/8) plus the masked tail
	maxOffset = 7  // every 4-byte start within a 32-byte vector
	guard     = 8  // sentinel elements on each side of a destination
	sentinel  = float32(-12345.5)
	// relTol bounds |got-ref| by relTol·Σ|terms|: a few float32
	// roundings of each partial sum, whatever the summation order.
	relTol = 1e-5
)

// axpyCases are the axpy kernels under test: Axpy with one row, and
// axpyRows with 0 to 9 rows.
var axpyCases = []struct {
	rows bool
	k    int
}{{false, 1}, {true, 0}, {true, 1}, {true, 2}, {true, 3}, {true, 4}, {true, 5}, {true, 9}}

func axpyName(rows bool, k int) string {
	if rows {
		return fmt.Sprintf("axpyRows%d", k)
	}
	return "Axpy"
}

// axpyN adds Σ_j c[j]·x[j] into y through Axpy (one row) or axpyRows, in
// the dispatching or the pure-Go form. axpyRows gathers its rows from one
// backing slice in which each row starts at a different alignment.
func axpyN(pure, rows bool, c []float32, x [][]float32, y []float32) {
	switch {
	case !rows && pure:
		axpyGo(c[0], x[0], y)
		return
	case !rows:
		Axpy(c[0], x[0], y)
		return
	}
	var b []float32
	off := make([]int, len(x))
	for j, xj := range x {
		b = append(b, make([]float32, (j*3)%8)...)
		off[j] = len(b)
		b = append(b, xj...)
	}
	if pure {
		axpyRowsGo(y, c, off, b)
	} else {
		axpyRows(y, c, off, b)
	}
}

// dotN returns a·b[j] for each of the k = len(b) ∈ {1, 2, 4} operands.
func dotN(pure bool, a []float32, b [][]float32) []float32 {
	switch {
	case len(b) == 1 && pure:
		return []float32{dotGo(a, b[0])}
	case len(b) == 1:
		return []float32{Dot(a, b[0])}
	case len(b) == 2 && pure:
		r0, r1 := dot2Go(a, b[0], b[1])
		return []float32{r0, r1}
	case len(b) == 2:
		r0, r1 := dot2(a, b[0], b[1])
		return []float32{r0, r1}
	case pure:
		r0, r1, r2, r3 := dot4Go(a, b[0], b[1], b[2], b[3])
		return []float32{r0, r1, r2, r3}
	default:
		r0, r1, r2, r3 := dot4(a, b[0], b[1], b[2], b[3])
		return []float32{r0, r1, r2, r3}
	}
}

// rowOperands returns k random slices of length n starting off elements
// into their backing arrays.
func rowOperands(rng *xrand.RNG, k, n, off int) [][]float32 {
	xs := make([][]float32, k)
	for j := range xs {
		buf := make([]float32, off+n)
		for i := range buf {
			buf[i] = float32(rng.NormMS(0, 1))
		}
		xs[j] = buf[off:]
	}
	return xs
}

// guarded copies y into the middle of a sentinel-padded buffer and
// returns the buffer and the view of y inside it.
func guarded(y []float32, off int) (buf, view []float32) {
	buf = make([]float32, guard+off+len(y)+guard)
	for i := range buf {
		buf[i] = sentinel
	}
	view = buf[guard+off : guard+off+len(y)]
	copy(view, y)
	return buf, view
}

func checkGuards(t *testing.T, name string, buf []float32, off, n int) {
	t.Helper()
	for i, v := range buf {
		if (i < guard+off || i >= guard+off+n) && v != sentinel {
			t.Fatalf("%s: wrote outside the destination at buffer index %d", name, i)
		}
	}
}

func withinTol(got float32, ref, mag float64) bool {
	return math.Abs(float64(got)-ref) <= relTol*mag
}

func TestAxpyKernelsMatchReference(t *testing.T) {
	rng := xrand.New(11)
	for _, tc := range axpyCases {
		for n := 0; n <= maxRowLen; n++ {
			for off := 0; off <= maxOffset; off++ {
				x := rowOperands(rng, tc.k, n, off)
				y0 := rowOperands(rng, 1, n, 0)[0]
				c := make([]float32, tc.k)
				for j := range c {
					c[j] = float32(rng.NormMS(0, 1))
				}
				if off == 3 && tc.k > 0 {
					c[tc.k-1] = 0 // a zero coefficient among non-zero ones
				}
				for _, pure := range []bool{false, true} {
					name := fmt.Sprintf("%s/n=%d/off=%d/pure=%v", axpyName(tc.rows, tc.k), n, off, pure)
					// Destination misaligned differently from the sources.
					yOff := (off * 3) % 8
					buf, y := guarded(y0, yOff)
					axpyN(pure, tc.rows, c, x, y)
					checkGuards(t, name, buf, yOff, n)
					for i := range y {
						ref, mag := float64(y0[i]), math.Abs(float64(y0[i]))
						for j := range x {
							term := float64(c[j]) * float64(x[j][i])
							ref += term
							mag += math.Abs(term)
						}
						if !withinTol(y[i], ref, mag) {
							t.Fatalf("%s: y[%d] = %v, float64 reference %v", name, i, y[i], ref)
						}
					}
				}
			}
		}
	}
}

func TestDotKernelsMatchReference(t *testing.T) {
	rng := xrand.New(12)
	for _, k := range []int{1, 2, 4} {
		for n := 0; n <= maxRowLen; n++ {
			for off := 0; off <= maxOffset; off++ {
				a := rowOperands(rng, 1, n, (off*5)%8)[0]
				b := rowOperands(rng, k, n, off)
				for _, pure := range []bool{false, true} {
					name := fmt.Sprintf("dot%d/n=%d/off=%d/pure=%v", k, n, off, pure)
					got := dotN(pure, a, b)
					for j := range b {
						var ref, mag float64
						for i := range a {
							term := float64(a[i]) * float64(b[j][i])
							ref += term
							mag += math.Abs(term)
						}
						if !withinTol(got[j], ref, mag) {
							t.Fatalf("%s: result %d = %v, float64 reference %v", name, j, got[j], ref)
						}
					}
				}
			}
		}
	}
}

// TestAxpyZeroCoefficientsLeaveDestination pins that all-zero
// coefficients over finite rows leave every destination bit unchanged.
func TestAxpyZeroCoefficientsLeaveDestination(t *testing.T) {
	rng := xrand.New(13)
	for _, tc := range axpyCases {
		for n := 0; n <= maxRowLen; n++ {
			x := rowOperands(rng, tc.k, n, n%8)
			y0 := rowOperands(rng, 1, n, 0)[0]
			for _, pure := range []bool{false, true} {
				y := append([]float32(nil), y0...)
				axpyN(pure, tc.rows, make([]float32, tc.k), x, y)
				for i := range y {
					if math.Float32bits(y[i]) != math.Float32bits(y0[i]) {
						t.Fatalf("%s/n=%d/pure=%v: y[%d] changed %v -> %v", axpyName(tc.rows, tc.k), n, pure, i, y0[i], y[i])
					}
				}
			}
		}
	}
}

// class buckets a value by how IEEE-754 special values propagate.
func class(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return "finite"
}

// TestRowKernelsPropagateSpecials plants NaN and ±Inf at every position
// of one operand and checks each output element's class (finite, NaN,
// +Inf, -Inf) against the float64 reference, for both kernel forms.
func TestRowKernelsPropagateSpecials(t *testing.T) {
	rng := xrand.New(14)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, n := range []int{1, 7, 8, 9, 31, 33, 40, 67} {
		for p := 0; p < n; p++ {
			for si, s := range specials {
				for _, tc := range axpyCases {
					if tc.k == 0 {
						continue
					}
					x := rowOperands(rng, tc.k, n, p%8)
					y0 := rowOperands(rng, 1, n, 0)[0]
					c := make([]float32, tc.k)
					for j := range c {
						c[j] = float32(j%3) - 0.5
					}
					if si == 0 {
						c[tc.k-1] = 0 // Inf·0 and NaN·0 are NaN
					}
					x[p%tc.k][p] = s
					for _, pure := range []bool{false, true} {
						y := append([]float32(nil), y0...)
						axpyN(pure, tc.rows, c, x, y)
						for i := range y {
							ref := float64(y0[i])
							for j := range x {
								ref += float64(c[j]) * float64(x[j][i])
							}
							if class(float64(y[i])) != class(ref) {
								t.Fatalf("%s/n=%d/p=%d/%v/pure=%v: y[%d] = %v, reference %v",
									axpyName(tc.rows, tc.k), n, p, s, pure, i, y[i], ref)
							}
						}
					}
				}
				for _, k := range []int{1, 2, 4} {
					a := rowOperands(rng, 1, n, 0)[0]
					b := rowOperands(rng, k, n, p%8)
					a[p] = s
					if si == 1 {
						b[p%k][p] = specials[2] // +Inf·-Inf meets finite sums
					}
					for _, pure := range []bool{false, true} {
						got := dotN(pure, a, b)
						for j := range b {
							var ref float64
							for i := range a {
								ref += float64(a[i]) * float64(b[j][i])
							}
							if class(float64(got[j])) != class(ref) {
								t.Fatalf("dot%d/n=%d/p=%d/%v/pure=%v: result %d = %v, reference %v",
									k, n, p, s, pure, j, got[j], ref)
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelsSkipZeroCoefficients checks the forward and weight-gradient
// GEMMs on inputs that are half zeros (as after ReLU), whose zero
// coefficients the row panels drop, against the naive references.
func TestKernelsSkipZeroCoefficients(t *testing.T) {
	rng := xrand.New(15)
	sparsify := func(m *Matrix) *Matrix {
		for i := range m.Data {
			if rng.Float64() < 0.5 {
				m.Data[i] = 0
			}
		}
		return m
	}
	for _, sh := range kernelShapes {
		a := sparsify(randShaped(rng, sh.m, sh.k))
		b := randShaped(rng, sh.k, sh.n)
		dst := New(sh.m, sh.n)
		MatMul(dst, a, b)
		if !dst.Equal(naiveMatMul(a, b), 1e-3) {
			t.Errorf("%dx%dx%d: MatMul on half-zero input differs from naive reference", sh.m, sh.k, sh.n)
		}
		at := sparsify(randShaped(rng, sh.k, sh.m))
		dstA := New(sh.m, sh.n)
		MatMulTransAAcc(dstA, at, b)
		if !dstA.Equal(naiveMatMulTransA(at, b), 1e-3) {
			t.Errorf("%dx%dx%d: MatMulTransAAcc on half-zero input differs from naive reference", sh.m, sh.k, sh.n)
		}
	}
}
