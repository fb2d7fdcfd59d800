// Package tensor implements the dense float32 linear-algebra kernels that
// the DLRM training stack is built on: matrices, cache-tiled parallel
// matrix multiplication (including transposed variants needed by
// backpropagation), fused bias/activation epilogues, and vector
// primitives. Parallel kernels run on a persistent worker pool (pool.go);
// design rationale is documented in DESIGN.md.
//
// The package is deliberately small and allocation-conscious: every kernel
// writes into a caller-provided destination so the training loop can reuse
// buffers across iterations, which matters when Hogwild workers hammer the
// same model concurrently.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps an existing slice as a rows×cols matrix. The slice is not
// copied; len(data) must equal rows*cols.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing storage).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Add accumulates other into m element-wise. Shapes must match.
func (m *Matrix) Add(other *Matrix) {
	m.mustSameShape(other)
	AddTo(m.Data, other.Data)
}

// Sub subtracts other from m element-wise. Shapes must match.
func (m *Matrix) Sub(other *Matrix) {
	m.mustSameShape(other)
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float32) { ScaleVec(m.Data, a) }

// AXPY computes m += a*x element-wise. Shapes must match.
func (m *Matrix) AXPY(a float32, x *Matrix) {
	m.mustSameShape(x)
	Axpy(a, x.Data, m.Data)
}

// Equal reports whether two matrices have identical shape and elements
// within tolerance eps.
func (m *Matrix) Equal(other *Matrix, eps float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

func (m *Matrix) mustSameShape(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// parallelThreshold is the FLOP count above which matmuls fan out across
// the persistent worker pool (pool.go). Below it the hand-off overhead
// exceeds the win.
const parallelThreshold = 1 << 17

// Cache tile sizes (see DESIGN.md). A tileRows×n destination tile plus a
// tileK×n panel of the streamed operand stay resident in L2 while the
// panel is reused across the tile's rows.
const (
	tileRows = 32
	tileK    = 256
)

// MatMul computes dst = a·b where a is m×k and b is k×n. dst must be m×n
// and must not alias a or b.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMul, dst, a, b, nil, false, a.Rows, a.Rows*a.Cols*b.Cols)
}

// MatMulBiasReLU computes dst = a·b + bias (broadcast over rows), applying
// ReLU in place when relu is true — the fused forward kernel of one dense
// layer. bias must have len b.Cols; dst must be m×n and must not alias a
// or b. The epilogue runs on each destination tile while it is still
// cache-resident, replacing the matmul→bias→ReLU triple pass over memory.
func MatMulBiasReLU(dst, a, b *Matrix, bias []float32, relu bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU bias len %d, want %d", len(bias), b.Cols))
	}
	dispatch(kMatMulBiasReLU, dst, a, b, bias, relu, a.Rows, a.Rows*a.Cols*b.Cols)
}

// rowPanel collects one destination row's work over a tileK panel: the
// non-zero coefficients and the element offsets of the b rows they
// scale. Zero coefficients (about half of post-ReLU activations) are
// dropped here, so the row kernel runs over non-zero work only.
type rowPanel struct {
	coef [tileK]float32
	off  [tileK]int
	n    int
}

// gather collects the non-zero coefficients a[first+p*stride] for
// p < count (count ≤ tileK), each scaling the b row at element offset
// boff+p*bstride.
func (rp *rowPanel) gather(a []float32, first, stride, count, boff, bstride int) {
	n := 0
	for p := 0; p < count; p++ {
		c := a[first+p*stride]
		rp.coef[n] = c
		rp.off[n] = boff + p*bstride
		// Keep c unless it is ±0, without a branch: zeros fall at random,
		// so a branch on c would mispredict about half the time.
		u := math.Float32bits(c) << 1
		n += int((u | -u) >> 31)
	}
	rp.n = n
}

// flush accumulates drow += Σ coef[t]·b[off[t]:off[t]+len(drow)].
func (rp *rowPanel) flush(drow, b []float32) {
	axpyRows(drow, rp.coef[:rp.n], rp.off[:rp.n], b)
}

// matMulRange computes rows [r0, r1) of dst = a·b with the i-k-j loop
// order, k blocked in tileK panels reused across tileRows-row tiles.
func matMulRange(dst, a, b *Matrix, r0, r1 int) {
	matMulBiasReLURange(dst, a, b, nil, false, r0, r1)
}

func matMulBiasReLURange(dst, a, b *Matrix, bias []float32, relu bool, r0, r1 int) {
	var rp rowPanel
	n := b.Cols
	k := a.Cols
	for ii := r0; ii < r1; ii += tileRows {
		iEnd := min(ii+tileRows, r1)
		for i := ii; i < iEnd; i++ {
			drow := dst.Data[i*n : (i+1)*n]
			for j := range drow {
				drow[j] = 0
			}
		}
		for kk := 0; kk < k; kk += tileK {
			kEnd := min(kk+tileK, k)
			for i := ii; i < iEnd; i++ {
				rp.gather(a.Data, i*k+kk, 1, kEnd-kk, kk*n, n)
				rp.flush(dst.Data[i*n:(i+1)*n], b.Data)
			}
		}
		if bias == nil {
			continue
		}
		// Fused epilogue over the still-hot tile.
		for i := ii; i < iEnd; i++ {
			drow := dst.Data[i*n : (i+1)*n]
			AddTo(drow, bias)
			if relu {
				for j, v := range drow {
					if v < 0 {
						drow[j] = 0
					}
				}
			}
		}
	}
}

// MatMulTransB computes dst = a·bᵀ where a is m×k and b is n×k. dst must
// be m×n. This is the shape backprop needs for input gradients
// (dX = dY·Wᵀ) without materializing the transpose.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dims (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMulTransB, dst, a, b, nil, false, a.Rows, a.Rows*a.Cols*b.Rows)
}

// matMulTransBRange computes rows [r0, r1) of dst = a·bᵀ; b's rows are
// walked in tileRows panels reused across each tile of a's rows.
func matMulTransBRange(dst, a, b *Matrix, r0, r1 int) {
	k := a.Cols
	n := b.Rows
	for ii := r0; ii < r1; ii += tileRows {
		iEnd := min(ii+tileRows, r1)
		for jj := 0; jj < n; jj += tileRows {
			jEnd := min(jj+tileRows, n)
			for i := ii; i < iEnd; i++ {
				arow := a.Data[i*k : (i+1)*k]
				drow := dst.Data[i*n : (i+1)*n]
				j := jj
				for ; j+4 <= jEnd; j += 4 {
					drow[j], drow[j+1], drow[j+2], drow[j+3] = dot4(arow,
						b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k],
						b.Data[(j+2)*k:(j+3)*k], b.Data[(j+3)*k:(j+4)*k])
				}
				for ; j+2 <= jEnd; j += 2 {
					drow[j], drow[j+1] = dot2(arow, b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k])
				}
				if j < jEnd {
					drow[j] = Dot(arow, b.Data[j*k:(j+1)*k])
				}
			}
		}
	}
}

// MatMulTransAAcc computes dst += aᵀ·b — the accumulate-fused weight
// gradient kernel. Backprop adds dW = Xᵀ·dY into the running gradient
// directly, eliminating the scratch matrix and the extra add pass.
func MatMulTransAAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc dims (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMulTransAAcc, dst, a, b, nil, false, a.Cols, a.Rows*a.Cols*b.Cols)
}

// matMulTransAAccRange accumulates rows [r0, r1) of dst += aᵀ·b (rows of
// dst index columns of a), blocking the shared row dimension of a/b in
// tileK panels so the streamed b panel is reused across the output range.
func matMulTransAAccRange(dst, a, b *Matrix, r0, r1 int) {
	var rp rowPanel
	m := a.Cols
	n := b.Cols
	for pp := 0; pp < a.Rows; pp += tileK {
		pEnd := min(pp+tileK, a.Rows)
		for i := r0; i < r1; i++ {
			rp.gather(a.Data, pp*m+i, m, pEnd-pp, pp*n, n)
			rp.flush(dst.Data[i*n:(i+1)*n], b.Data)
		}
	}
}
