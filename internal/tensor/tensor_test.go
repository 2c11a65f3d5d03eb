package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 {
		t.Fatalf("Size = %d, want 24", a.Size())
	}
	if a.Dim() != 3 || a.Dims(0) != 2 || a.Dims(1) != 3 || a.Dims(2) != 4 {
		t.Fatalf("bad shape %v", a.Shape())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Size() != 1 || s.Dim() != 0 || s.Item() != 3.5 {
		t.Fatalf("Scalar = %v", s)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7, 1, 2)
	if a.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", a.At(1, 2))
	}
	if a.Data()[1*4+2] != 7 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceOwnership(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[0] = 9
	if a.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 1)
	if a.At(0, 1) != 42 {
		t.Fatal("Reshape must share storage")
	}
	c := a.Reshape(-1)
	if c.Dim() != 1 || c.Dims(0) != 6 {
		t.Fatalf("Reshape(-1) shape = %v", c.Shape())
	}
	d := a.Reshape(2, -1)
	if d.Dims(1) != 3 {
		t.Fatalf("inferred dim = %d, want 3", d.Dims(1))
	}
}

func TestReshapePanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestCopyFromAcrossShapes(t *testing.T) {
	a := New(2, 3)
	b := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 6)
	a.CopyFrom(b)
	if a.At(1, 2) != 6 {
		t.Fatal("CopyFrom should copy flat contents")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b); !got.Equal(Full(5, 2, 2)) {
		t.Fatalf("Add = %v", got)
	}
	if got := MulScalar(a, 2); !got.Equal(FromSlice([]float32{2, 4, 6, 8}, 2, 2)) {
		t.Fatalf("MulScalar = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(New(2), New(3))
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	AddInPlace(a, FromSlice([]float32{10, 20}, 2))
	if !a.Equal(FromSlice([]float32{11, 22}, 2)) {
		t.Fatalf("AddInPlace = %v", a)
	}
	ScaleFloats(a.data, 0.5)
	if !a.Equal(FromSlice([]float32{5.5, 11}, 2)) {
		t.Fatalf("ScaleFloats = %v", a)
	}
	mulAdd1(a.data, 2, []float32{1, 1})
	if !a.Equal(FromSlice([]float32{7.5, 13}, 2)) {
		t.Fatalf("mulAdd1 = %v", a)
	}
}

func TestAddRowSumRows(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	row := FromSlice([]float32{10, 20, 30}, 3)
	got := AddRow(m, row)
	want := FromSlice([]float32{11, 22, 33, 14, 25, 36}, 2, 3)
	if !got.Equal(want) {
		t.Fatalf("AddRow = %v", got)
	}
	s := SumRows(m, 3)
	if !s.Equal(FromSlice([]float32{5, 7, 9}, 3)) {
		t.Fatalf("SumRows = %v", s)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 1, 4, 5)
	b := RandN(rng, 1, 4, 6)
	got := MatMulTransA(a, b)
	want := MatMul(transpose2D(a), b)
	if !allClose(got, want, 1e-5, 1e-6) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}
	x := RandN(rng, 1, 3, 4)
	y := RandN(rng, 1, 5, 4)
	gotB := MatMulTransB(x, y)
	wantB := MatMul(x, transpose2D(y))
	if !allClose(gotB, wantB, 1e-5, 1e-6) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := transpose2D(a)
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want) {
		t.Fatalf("transpose2D = %v", got)
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := dot1(a.data, b.data); got != 32 {
		t.Fatalf("dot1 = %v, want 32", got)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if Sum(a).Item() != 10 {
		t.Fatalf("Sum = %v", Sum(a).Item())
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgMaxRows(a)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandN(rng, 3, 4, 7)
	s := SoftmaxRows(a)
	for i := 0; i < 4; i++ {
		var sum float32
		for j := 0; j < 7; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(float64(sum-1)) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandN(rng, 2, 3, 5)
	ls := LogSoftmaxRows(a)
	want := Apply(SoftmaxRows(a), func(v float32) float32 { return float32(math.Log(float64(v))) })
	if !allClose(ls, want, 1e-4, 1e-5) {
		t.Fatal("LogSoftmaxRows disagrees with Log(SoftmaxRows)")
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	a := FromSlice([]float32{1000, 1000, 1000}, 1, 3)
	s := SoftmaxRows(a)
	for j := 0; j < 3; j++ {
		if math.Abs(float64(s.At(0, j)-1.0/3)) > 1e-5 {
			t.Fatalf("unstable softmax: %v", s)
		}
	}
}

func TestUnaryFunctions(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2}, 3)
	if got := Relu(a); !got.Equal(FromSlice([]float32{0, 0, 2}, 3)) {
		t.Fatalf("Relu = %v", got)
	}
	if got := Tanh(FromSlice([]float32{0}, 1)); got.At(0) != 0 {
		t.Fatalf("Tanh(0) = %v", got)
	}
	if got := Gelu(FromSlice([]float32{0}, 1)); got.At(0) != 0 {
		t.Fatalf("Gelu(0) = %v", got)
	}
}

// Property: matmul distributes over addition, (A+B)C = AC + BC.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := RandN(rng, 1, m, k)
		b := RandN(rng, 1, m, k)
		c := RandN(rng, 1, k, n)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		return allClose(left, right, 1e-3, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and x - x is zero.
func TestElementwiseProperties(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				vals[i] = 1
			}
		}
		a := FromSlice(append([]float32(nil), vals...), len(vals))
		b := FromSlice(append([]float32(nil), vals...), len(vals))
		if !Add(a, b).Equal(Add(b, a)) {
			return false
		}
		z := a.Clone()
		mulAdd1(z.data, -1, a.data)
		for _, v := range z.Data() {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPool2DRoundTrip(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	out, arg := MaxPool2D(in)
	want := FromSlice([]float32{6, 8, 14, 16}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("MaxPool2D = %v, want %v", out, want)
	}
	gin := MaxPool2DBackward(Ones(1, 1, 2, 2), arg, in.Shape())
	if gin.At(0, 0, 1, 1) != 1 || gin.At(0, 0, 0, 0) != 0 {
		t.Fatalf("MaxPool2DBackward = %v", gin)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := RandN(rand.New(rand.NewSource(42)), 1, 3, 3)
	b := RandN(rand.New(rand.NewSource(42)), 1, 3, 3)
	if !a.Equal(b) {
		t.Fatal("same seed must give identical tensors (DDP replicas rely on this)")
	}
	c := KaimingUniform(rand.New(rand.NewSource(1)), 16, 4, 4)
	bound := float32(1 / math.Sqrt(16))
	for _, v := range c.Data() {
		if v < -bound || v > bound {
			t.Fatalf("KaimingUniform out of bound: %v", v)
		}
	}
}

// TestAllCloseAndMaxAbsDiff holds the tests' tolerance, allClose, and
// MaxAbsDiff to a small and a large difference.
func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0001, 2}, 2)
	if !allClose(a, b, 1e-3, 1e-3) {
		t.Fatal("allClose should accept small differences")
	}
	if allClose(a, FromSlice([]float32{2, 2}, 2), 1e-3, 1e-3) {
		t.Fatal("allClose should reject large differences")
	}
	if d := a.MaxAbsDiff(b); d > 1e-3 || d == 0 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}
