package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three naive loops the tiled kernels in matmul.go replaced, kept as
// the oracle: they define, per kernel, the order in which an output
// element folds its products and which zero factors it skips. The one
// edit is the float32() around each product, which is what the loops
// compiled to wherever the compiler did not fuse.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += float32(arow[p] * brow[p])
			}
			orow[j] = s
		}
	}
	return out
}

// matmulKernels pairs each kernel with its oracle and says which
// operands it takes transposed, for an [m,n] result reduced over k.
var matmulKernels = []struct {
	name           string
	kernel, ref    func(a, b *Tensor) *Tensor
	transA, transB bool
}{
	{"MatMul", MatMul, refMatMul, false, false},
	{"MatMulTransA", MatMulTransA, refMatMulTransA, true, false},
	{"MatMulTransAInto", matMulTransAIntoGarbage, refMatMulTransA, true, false},
	{"MatMulTransB", MatMulTransB, refMatMulTransB, false, true},
}

// matMulTransAIntoGarbage runs the into-form over a destination that
// holds NaN, ±Inf and finite garbage — a bucket slot after the last
// step, or a pooled buffer — none of which may reach the result.
func matMulTransAIntoGarbage(a, b *Tensor) *Tensor {
	dst := New(a.shape[1], b.shape[1])
	garbage := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -3e30, 7}
	for i := range dst.data {
		dst.data[i] = garbage[i%len(garbage)]
	}
	if got := MatMulTransAInto(dst, a, b); got != dst {
		panic("MatMulTransAInto did not return its destination")
	}
	return dst
}

// newOperands returns zero operands of the shapes under which a kernel
// with these transpositions reduces [m,k] and [k,n] to [m,n].
func newOperands(transA, transB bool, m, k, n int) (a, b *Tensor) {
	a, b = New(m, k), New(k, n)
	if transA {
		a = New(k, m)
	}
	if transB {
		b = New(n, k)
	}
	return a, b
}

// benchShapes are the (m, k, n) the benchmark's models put through the
// kernels: the compute MLP's hidden layer and its head (one vector and a
// tail of two), the wide MLP's, and the transformer's feed-forward (both
// directions) and per-head attention products.
var benchShapes = [][3]int{{64, 512, 512}, {64, 512, 10}, {2, 1024, 1024}, {16, 128, 512}, {16, 512, 128}, {16, 32, 16}}

// Left-operand fills. The specials put −0, NaN and ±Inf in the left
// operand and zeros opposite them in the right one, so a skipped 0·Inf
// must stay skipped and an unskipped one must still poison.
const (
	fillDense = iota
	fillHalfZero
	fillAllZero
	fillSpecials
	numFills
)

var fillNames = [numFills]string{"dense", "halfzero", "allzero", "specials"}

func fillOperands(rng *rand.Rand, fill int, a, b *Tensor) {
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range b.data {
		b.data[i] = float32(rng.NormFloat64())
	}
	for i := range a.data {
		v := float32(rng.NormFloat64())
		switch fill {
		case fillHalfZero:
			if rng.Intn(2) == 0 {
				v = 0
			}
		case fillAllZero:
			v = 0
		case fillSpecials:
			if rng.Intn(3) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
		}
		a.data[i] = v
	}
	if fill == fillSpecials {
		for i := range b.data {
			if rng.Intn(4) == 0 {
				b.data[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
}

// requireBitwise fails unless got and want have the same shape and the
// same bits in every element, the sign of zero included. A NaN matches
// any NaN: which of two NaN operands an add returns (sign and payload)
// depends on the operand order the compiler picks for the instruction,
// which neither these loops nor the kernels can pin.
func requireBitwise(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.shape, want.shape)
	}
	for i, w := range want.data {
		g := got.data[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#08x), reference %v (%#08x)",
				what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// checkAgainstReference holds every kernel to its oracle under each body
// of the leaves (kernelBodies), so each suite built on it covers the Go
// loops and the assembly in one run.
func checkAgainstReference(t *testing.T, rng *rand.Rand, m, k, n, fill int) {
	t.Helper()
	for _, kr := range matmulKernels {
		a, b := newOperands(kr.transA, kr.transB, m, k, n)
		fillOperands(rng, fill, a, b)
		want := kr.ref(a, b)
		kernelBodies(func(body string) {
			what := fmt.Sprintf("%s/%s m=%d k=%d n=%d %s", body, kr.name, m, k, n, fillNames[fill])
			requireBitwise(t, what, kr.kernel(a, b), want)
		})
	}
}

// TestMatMulMatchesReference sweeps every combination of tile tails
// (sizes around the 4-wide tiles, empty dimensions included) and every
// left-operand fill.
func TestMatMulMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 64}
	rng := rand.New(rand.NewSource(15))
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				for fill := 0; fill < numFills; fill++ {
					checkAgainstReference(t, rng, m, k, n, fill)
				}
			}
		}
	}
}

func TestMatMulMatchesReferenceBenchShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, s := range benchShapes {
		for fill := 0; fill < numFills; fill++ {
			checkAgainstReference(t, rng, s[0], s[1], s[2], fill)
		}
	}
}

// TestMatMulZeroSkipIsObservable pins the part of the contract a
// tolerance-based test cannot see: MatMul and MatMulTransA drop a term
// whose left factor is ±0 even when the right factor is Inf or NaN,
// while MatMulTransB keeps every term.
func TestMatMulZeroSkipIsObservable(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	left := FromSlice([]float32{0, negZero, 2, 0, 0}, 1, 5)
	right := FromSlice([]float32{inf, inf, 3, float32(math.NaN()), -inf}, 5, 1)
	if got := MatMul(left, right).data[0]; got != 6 {
		t.Fatalf("MatMul kept a 0·Inf term: got %v, want 6", got)
	}
	if got := MatMulTransA(left.Reshape(5, 1), right).data[0]; got != 6 {
		t.Fatalf("MatMulTransA kept a 0·Inf term: got %v, want 6", got)
	}
	if got := MatMulTransB(left, right.Reshape(1, 5)).data[0]; !math.IsNaN(float64(got)) {
		t.Fatalf("MatMulTransB dropped a 0·Inf term: got %v, want NaN", got)
	}
}

// FuzzMatMulMatchesReference lets the fuzzer pick the shape, the fill
// and the data seed; dimensions stay below 70 so one input costs
// microseconds.
func FuzzMatMulMatchesReference(f *testing.F) {
	for _, s := range benchShapes {
		for fill := 0; fill < numFills; fill++ {
			f.Add(uint8(s[0]), uint8(s[1]%70), uint8(s[2]%70), uint8(fill), int64(s[1]))
		}
	}
	f.Add(uint8(5), uint8(9), uint8(17), uint8(fillSpecials), int64(1))
	f.Fuzz(func(t *testing.T, m, k, n, fill uint8, seed int64) {
		checkAgainstReference(t, rand.New(rand.NewSource(seed)), int(m%70), int(k%70), int(n%70), int(fill%numFills))
	})
}
