package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// matmulKernels pairs each kernel with its oracle, says which operands it
// takes transposed, for an [m,n] result reduced over k, and lists the
// (m, k, n) the benchmark's models call it with.
var matmulKernels = []matmulKernel{
	{"MatMul", MatMul, refMatMul, false, false, tileBodies, matMulShapes},
	{"MatMulTransA", MatMulTransA, refMatMulTransA, true, false, tileBodies, transAShapes},
	{"MatMulTransAInto", matMulTransAIntoGarbage, refMatMulTransA, true, false, tileBodies, transAShapes},
	{"MatMulTransB", MatMulTransB, refMatMulTransB, false, true, tileBodies, transBShapes},
}

type matmulKernel struct {
	name           string
	kernel, ref    func(a, b *Tensor) *Tensor
	transA, transB bool
	bodies         func(f func(body string)) // the bodies its leaves have
	shapes         [][3]int
}

// The (m, k, n) the benchmark's models put through each kernel in a step.
// The compute MLP (64 rows, 256 → 512 → 512 → 10): its three forward
// products, its three weight gradients, and the input gradients of its
// hidden layer and head (the first layer's input needs none). The wide
// MLP (two rows, 1024 wide): one shape of each. The transformer (16
// tokens, width 128, four heads of 32, feed-forward 512): the
// projections, the feed-forward in both directions, and per head the
// scores q·kᵀ and their product with v, forward and backward.
var (
	matMulShapes = [][3]int{{64, 256, 512}, {64, 512, 512}, {64, 512, 10}, {2, 1024, 1024},
		{16, 128, 128}, {16, 128, 512}, {16, 512, 128}, {16, 16, 32}}
	transAShapes = [][3]int{{256, 64, 512}, {512, 64, 512}, {512, 64, 10}, {1024, 2, 1024},
		{128, 16, 128}, {128, 16, 512}, {512, 16, 128}, {16, 16, 32}}
	transBShapes = [][3]int{{64, 512, 512}, {64, 10, 512}, {2, 1024, 1024},
		{16, 128, 128}, {16, 128, 512}, {16, 512, 128}, {16, 32, 16}}
)

// matMulTransAIntoGarbage runs the into-form over a destination that
// holds NaN, ±Inf and finite garbage — a bucket slot after the last
// step, or a pooled buffer — none of which may reach the result.
func matMulTransAIntoGarbage(a, b *Tensor) *Tensor {
	dst := garbage(a.shape[1], b.shape[1])
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
// of its leaves, so each suite built on it covers the Go loops and the
// assembly in one run.
func checkAgainstReference(t *testing.T, rng *rand.Rand, m, k, n, fill int) {
	t.Helper()
	for i := range matmulKernels {
		checkKernel(t, rng, i, m, k, n, fill)
	}
}

// checkKernel is checkAgainstReference for matmulKernels[i] alone.
func checkKernel(t *testing.T, rng *rand.Rand, i, m, k, n, fill int) {
	t.Helper()
	kr := matmulKernels[i]
	a, b := newOperands(kr.transA, kr.transB, m, k, n)
	fillOperands(rng, fill, a, b)
	want := kr.ref(a, b)
	kr.bodies(func(body string) {
		what := fmt.Sprintf("%s/%s m=%d k=%d n=%d %s", body, kr.name, m, k, n, fillNames[fill])
		requireBitwise(t, what, kr.kernel(a, b), want)
	})
}

// TestMatMulMatchesReference sweeps every combination of tile tails
// (sizes around the 4-wide tiles and the four-row tile, empty dimensions
// included), of k around the zero-skip scan's block (scanBlock − 1,
// scanBlock, scanBlock + 1, 2·scanBlock + 3), of columns around the
// AVX-512 tile's 16-wide chunks and 64-wide blocks (15, 16, 17, 63, 64,
// 65), and every left-operand fill.
func TestMatMulMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, scanBlock - 1, scanBlock, scanBlock + 1, 2*scanBlock + 3, 64}
	columns := append(sizes, 63, 65)
	rng := rand.New(rand.NewSource(15))
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range columns {
				for fill := 0; fill < numFills; fill++ {
					checkAgainstReference(t, rng, m, k, n, fill)
				}
			}
		}
	}
}

// TestMatMulMatchesReferenceBenchShapes holds each kernel to its oracle
// at the shapes the benchmark's models call it with.
func TestMatMulMatchesReferenceBenchShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i, kr := range matmulKernels {
		for _, s := range kr.shapes {
			for fill := 0; fill < numFills; fill++ {
				checkKernel(t, rng, i, s[0], s[1], s[2], fill)
			}
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

	// The same rule when four output rows are computed at once, 70
	// columns wide (a 64-wide block and a masked tail): a row's ±0
	// coefficients opposite Inf and NaN leave its sums finite, its
	// neighbour's NaN coefficient is applied, and a row whose
	// coefficients are all ±0 stays +0. MatMulTransB, whose AVX-512 body
	// runs the same tile over b packed into panels, keeps every term, so
	// each of its elements meets a 0·Inf and is NaN.
	const k, n = 4, 70
	nan := float32(math.NaN())
	right = New(k, n)
	for j := range n {
		right.data[j] = inf   // p = 0
		right.data[n+j] = nan // p = 1
		right.data[2*n+j] = float32(j + 1)
		right.data[3*n+j] = float32(j)
	}
	left = FromSlice([]float32{
		0, negZero, 2, 0, // finite: 2·(j+1)
		negZero, 0, nan, negZero, // NaN, from the NaN coefficient alone
		negZero, 0, negZero, 0, // nothing added: +0
		negZero, 0, 3, negZero, // finite: 3·(j+1)
	}, 4, k)
	check := func(what string, out *Tensor) {
		t.Helper()
		for j := range n {
			want := [4]float32{float32(2 * (j + 1)), nan, 0, float32(3 * (j + 1))}
			for r, w := range want {
				g := out.data[r*n+j]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("%s: row %d column %d = %v (%#08x), want %v (%#08x)", what, r, j, g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
	tileBodies(func(body string) {
		check(body+"/MatMul", MatMul(left, right))
		check(body+"/MatMulTransA", MatMulTransA(Transpose2D(left), right))
		check(body+"/MatMulTransAInto", MatMulTransAInto(garbage(4, n), Transpose2D(left), right))
		for j, g := range MatMulTransB(left, Transpose2D(right)).data {
			if g == g {
				t.Fatalf("%s/MatMulTransB: row %d column %d = %v, want NaN", body, j/n, j%n, g)
			}
		}
	})
}

// TestMatMulTransAIntoRefusesAliasedDestination: a destination that
// overlaps either operand would read what it has already written, so it
// panics and names the operand.
func TestMatMulTransAIntoRefusesAliasedDestination(t *testing.T) {
	const k, m, n = 4, 4, 4
	buf := make([]float32, k*m+k*n)
	a, b := FromSlice(buf[:k*m], k, m), FromSlice(buf[k*m:], k, n)
	for _, c := range []struct {
		name, want string
		dst        *Tensor
	}{
		{"dst is a", "with a [4 4]", FromSlice(buf[:m*n], m, n)},
		{"dst is b", "with b [4 4]", FromSlice(buf[k*m:], m, n)},
		{"dst overlaps the end of a", "with a [4 4]", FromSlice(buf[k*m-1:k*m-1+m*n], m, n)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "shares storage "+c.want) {
					t.Fatalf("panic %q, want one naming the operand (%q)", msg, c.want)
				}
			}()
			MatMulTransAInto(c.dst, a, b)
		})
	}
}

// FuzzMatMulMatchesReference lets the fuzzer pick the shape, the fill
// and the data seed; dimensions stay below 70 so one input costs
// microseconds, which still spans four of the scan's blocks.
func FuzzMatMulMatchesReference(f *testing.F) {
	for _, shapes := range [][][3]int{matMulShapes, transAShapes, transBShapes} {
		for _, s := range shapes {
			for fill := 0; fill < numFills; fill++ {
				f.Add(uint8(s[0]%70), uint8(s[1]%70), uint8(s[2]%70), uint8(fill), int64(s[1]))
			}
		}
	}
	f.Add(uint8(5), uint8(9), uint8(17), uint8(fillSpecials), int64(1))
	// The four-row tile: one and two tiles with and without rows after
	// them, across its 16-wide chunks and 64-wide blocks.
	for _, m := range []int{3, 4, 5, 8, 9} {
		for _, n := range []int{15, 16, 17, 63, 64, 65} {
			f.Add(uint8(m), uint8(m+n%7), uint8(n), uint8((m+n)%numFills), int64(m*n))
		}
	}
	// MatMulTransB's panels: a group of 63 rows of b (three blocks of 16
	// and 15 rows after them), a whole group, and a whole group and one
	// row more, over k around the pack's four-p steps. The panel's depth
	// is beyond the fuzzer's dimensions; TestMatMulTransBPanelBoundaries
	// covers it.
	for _, m := range []int{3, 4, 5, 8, 9} {
		for k := 1; k <= 5; k++ {
			for _, n := range []int{63, 64, 65} {
				f.Add(uint8(m), uint8(k), uint8(n), uint8((m+k+n)%numFills), int64(m*k*n))
			}
		}
	}
	f.Fuzz(func(t *testing.T, m, k, n, fill uint8, seed int64) {
		checkAgainstReference(t, rand.New(rand.NewSource(seed)), int(m%70), int(k%70), int(n%70), int(fill%numFills))
	})
}
