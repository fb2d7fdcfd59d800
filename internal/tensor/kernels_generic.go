//go:build !amd64 || race

package tensor

// Without the assembly kernels (other architectures, and race-detector
// builds, whose instrumentation does not see inside assembly) every row
// kernel is its pure-Go form.

// Dot returns the inner product of a and b over their common length.
func Dot(a, b []float32) float32 { return dotGo(a, b) }

// Axpy computes y += alpha*x element-wise over the common length.
func Axpy(alpha float32, x, y []float32) { axpyGo(alpha, x, y) }

func axpyRows(y, c []float32, off []int, b []float32) { axpyRowsGo(y, c, off, b) }

func dot2(a, b0, b1 []float32) (float32, float32) { return dot2Go(a, b0, b1) }

func dot4(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	return dot4Go(a, b0, b1, b2, b3)
}
