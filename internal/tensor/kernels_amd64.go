//go:build amd64 && !race

package tensor

// The race detector does not instrument assembly, so race builds use the
// pure-Go kernels (kernels_generic.go) and keep every kernel memory access
// checked.

// useFMA selects the AVX2+FMA kernels of kernels_amd64.s. It is fixed at
// package init and never changes afterwards.
var useFMA = hasAVX2FMA()

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the OS
// saves the YMM register state across context switches.
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const sseState, avxState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|avxState) != sseState|avxState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly kernels take their element count from the first slice and
// expect every other slice to be at least that long; the wrappers below
// clamp to the common length first, as the pure-Go kernels do. axpyRows
// is the exception: its callers guarantee every b row holds len(y)
// elements.

//go:noescape
func axpyFMA(alpha float32, x, y []float32)

//go:noescape
func axpyRowsFMA(y, c []float32, off []int, b []float32)

//go:noescape
func dotFMA(a, b []float32) float32

//go:noescape
func dot2FMA(a, b0, b1 []float32) (r0, r1 float32)

//go:noescape
func dot4FMA(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32)

// Dot returns the inner product of a and b over their common length.
func Dot(a, b []float32) float32 {
	if !useFMA {
		return dotGo(a, b)
	}
	n := min(len(a), len(b))
	return dotFMA(a[:n], b[:n])
}

// Axpy computes y += alpha*x element-wise over the common length.
func Axpy(alpha float32, x, y []float32) {
	if !useFMA {
		axpyGo(alpha, x, y)
		return
	}
	n := min(len(x), len(y))
	axpyFMA(alpha, x[:n], y[:n])
}

func axpyRows(y, c []float32, off []int, b []float32) {
	if !useFMA {
		axpyRowsGo(y, c, off, b)
		return
	}
	axpyRowsFMA(y, c, off, b)
}

func dot2(a, b0, b1 []float32) (float32, float32) {
	if !useFMA {
		return dot2Go(a, b0, b1)
	}
	n := min(len(a), len(b0), len(b1))
	return dot2FMA(a[:n], b0[:n], b1[:n])
}

func dot4(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	if !useFMA {
		return dot4Go(a, b0, b1, b2, b3)
	}
	n := min(len(a), len(b0), len(b1), len(b2), len(b3))
	return dot4FMA(a[:n], b0[:n], b1[:n], b2[:n], b3[:n])
}
