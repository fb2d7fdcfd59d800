package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// naiveMatMul is the O(n³) reference used to validate the optimized kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randomMatrix(rng *xrand.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, 1))
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {33, 17, 9}, {64, 128, 32}}
	for _, s := range shapes {
		a := randomMatrix(rng, s[0], s[1])
		b := randomMatrix(rng, s[1], s[2])
		want := naiveMatMul(a, b)
		got := New(s[0], s[2])
		MatMul(got, a, b)
		if !got.Equal(want, 1e-4) {
			t.Errorf("MatMul mismatch for shape %v", s)
		}
	}
}

func TestMatMulParallelLarge(t *testing.T) {
	rng := xrand.New(2)
	// Large enough to cross parallelThreshold.
	a := randomMatrix(rng, 120, 90)
	b := randomMatrix(rng, 90, 70)
	want := naiveMatMul(a, b)
	got := New(120, 70)
	MatMul(got, a, b)
	if !got.Equal(want, 1e-3) {
		t.Error("parallel MatMul diverges from naive result")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := xrand.New(3)
	a := randomMatrix(rng, 12, 7)
	bT := randomMatrix(rng, 9, 7) // b = bTᵀ is 7x9
	b := New(7, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			b.Set(j, i, bT.At(i, j))
		}
	}
	want := naiveMatMul(a, b)
	got := New(12, 9)
	MatMulTransB(got, a, bT)
	if !got.Equal(want, 1e-4) {
		t.Error("MatMulTransB mismatch")
	}
}

// TestMatMulTransAAcc checks aᵀ·b accumulated into a zeroed destination.
func TestMatMulTransAAcc(t *testing.T) {
	rng := xrand.New(4)
	aT := randomMatrix(rng, 11, 6) // a = aTᵀ is 6x11
	b := randomMatrix(rng, 11, 8)
	a := New(6, 11)
	for i := 0; i < 11; i++ {
		for j := 0; j < 6; j++ {
			a.Set(j, i, aT.At(i, j))
		}
	}
	want := naiveMatMul(a, b)
	got := New(6, 8)
	MatMulTransAAcc(got, aT, b)
	if !got.Equal(want, 1e-4) {
		t.Error("MatMulTransAAcc mismatch")
	}
}

func TestMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(20)
		a := randomMatrix(rng, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		got := New(n, n)
		MatMul(got, a, id)
		return got.Equal(a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulDistributive(t *testing.T) {
	// a·(b+c) == a·b + a·c
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		c := randomMatrix(rng, k, n)
		bc := b.Clone()
		bc.Add(c)
		left := New(m, n)
		MatMul(left, a, bc)
		ab := New(m, n)
		ac := New(m, n)
		MatMul(ab, a, b)
		MatMul(ac, a, c)
		ab.Add(ac)
		return left.Equal(ab, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromData(2, 3, make([]float32, 5))
}

func TestCloneIsDeep(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromData(2, 2, []float32{1, 2, 3, 4})
	b := FromData(2, 2, []float32{4, 3, 2, 1})
	a.Add(b)
	want := FromData(2, 2, []float32{5, 5, 5, 5})
	if !a.Equal(want, 0) {
		t.Errorf("Add: got %v", a.Data)
	}
	a.Sub(b)
	if !a.Equal(FromData(2, 2, []float32{1, 2, 3, 4}), 0) {
		t.Errorf("Sub: got %v", a.Data)
	}
	a.Scale(2)
	if !a.Equal(FromData(2, 2, []float32{2, 4, 6, 8}), 0) {
		t.Errorf("Scale: got %v", a.Data)
	}
	a.AXPY(0.5, b)
	if !a.Equal(FromData(2, 2, []float32{4, 5.5, 7, 8.5}), 1e-6) {
		t.Errorf("AXPY: got %v", a.Data)
	}
}

func TestRowIsView(t *testing.T) {
	m := New(3, 4)
	r := m.Row(1)
	r[2] = 7
	if m.At(1, 2) != 7 {
		t.Error("Row should be a view into the matrix")
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if d := Dot(a, b); d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	y := []float32{1, 1, 1}
	Axpy(2, a, y)
	want := []float32{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestL2NormAndMaxAbs(t *testing.T) {
	x := []float32{3, -4}
	if n := L2Norm(x); math.Abs(float64(n)-5) > 1e-6 {
		t.Errorf("L2Norm = %v, want 5", n)
	}
	if m := MaxAbs(x); m != 4 {
		t.Errorf("MaxAbs = %v, want 4", m)
	}
	if m := MaxAbs(nil); m != 0 {
		t.Errorf("MaxAbs(nil) = %v, want 0", m)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := xrand.New(5)
	m := New(50, 50)
	XavierInit(m, 50, 50, rng)
	bound := float32(math.Sqrt(6.0 / 100.0))
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
	// Should not be all zeros.
	if MaxAbs(m.Data) == 0 {
		t.Error("Xavier init produced all zeros")
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(float64(s)-0.5) > 1e-6 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Errorf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Errorf("Sigmoid(-100) = %v", s)
	}
}

func TestSumScaleVec(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	if s := Sum(x); s != 10 {
		t.Errorf("Sum = %v", s)
	}
	ScaleVec(x, 0.5)
	if x[3] != 2 {
		t.Errorf("ScaleVec: got %v", x)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := xrand.New(1)
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulNaive128(b *testing.B) {
	rng := xrand.New(1)
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMatMul(x, y)
	}
}
