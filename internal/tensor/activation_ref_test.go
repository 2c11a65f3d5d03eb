package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The branching loops Relu, ReluGrad and SumRows replaced, kept as the
// oracle, as matmul_ref_test.go keeps the triple loops: ReLU through
// Apply and a closure that compares, its gradient as the loop autograd's
// backward ran, and the bias gradient folded by column index modulo n.

func refRelu(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 {
		if v > 0 {
			return v
		}
		return 0
	})
}

func refReluGrad(x, g *Tensor) *Tensor {
	out := New(x.shape...)
	for i := range out.data {
		if x.data[i] > 0 {
			out.data[i] = g.data[i]
		}
	}
	return out
}

func refSumRows(m *Tensor, n int) *Tensor {
	out := New(n)
	for i, v := range m.data {
		out.data[i%n] += v
	}
	return out
}

// activationSpecials are the inputs whose bits a mask could get wrong:
// NaNs of either sign and several payloads, signed zeros and
// infinities, the subnormal extremes, and the largest finite values.
var activationSpecials = []uint32{
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fffffff, // NaN
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x3f800000, 0xbf800000, // ±1
}

// requireIdentical is requireBitwise without its NaN clause: ReLU and
// its gradient move bits and do no arithmetic, so a NaN must come
// through with its sign and payload.
func requireIdentical(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.shape, want.shape)
	}
	for i, w := range want.data {
		if g := got.data[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %#08x, reference %#08x", what, i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// garbage returns a tensor of the given shape holding NaN, ±Inf and
// finite junk, for an Into form to overwrite.
func garbage(shape ...int) *Tensor {
	junk := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -3e30, 7}
	t := New(shape...)
	for i := range t.data {
		t.data[i] = junk[i%len(junk)]
	}
	return t
}

// checkActivations holds Relu, ReluGrad, SumRows and SumRowsInto (over
// garbage) to their oracles on x and g of rows·n elements, under each
// body of AddFloats, which SumRows folds with.
func checkActivations(t *testing.T, x, g *Tensor, n int) {
	t.Helper()
	what := fmt.Sprintf("%d×%d", len(x.data)/n, n)
	requireIdentical(t, "Relu "+what, Relu(x), refRelu(x))
	requireIdentical(t, "ReluGrad "+what, ReluGrad(x, g), refReluGrad(x, g))
	want := refSumRows(g, n)
	kernelBodies(func(body string) {
		requireBitwise(t, body+"/SumRows "+what, SumRows(g, n), want)
		dst := garbage(n)
		if got := SumRowsInto(dst, g); got != dst {
			t.Fatal("SumRowsInto did not return its destination")
		}
		requireBitwise(t, body+"/SumRowsInto "+what, dst, want)
	})
}

// TestActivationsMatchReference runs every special value through x and
// through g — each special meets each other special at least once, and
// finite values of both signs — at shapes with one row, one column and
// rows around AddFloats' eight lanes.
func TestActivationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := len(activationSpecials)
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {s, 1}, {1, s * s}, {3, 8}, {s, s}, {9, 17}, {64, 33}} {
		rows, n := shape[0], shape[1]
		x, g := New(rows, n), New(rows, n)
		for i := range x.data {
			xb, gb := activationSpecials[i%s], activationSpecials[(i/s)%s]
			if i >= s*s && rng.Intn(2) == 0 {
				xb, gb = math.Float32bits(float32(rng.NormFloat64())), math.Float32bits(float32(rng.NormFloat64()))
			}
			x.data[i], g.data[i] = math.Float32frombits(xb), math.Float32frombits(gb)
		}
		checkActivations(t, x, g, n)
	}
}

// TestReluMasksSpecials pins the contract the oracle defines, readable
// on its own: NaN and −0 come out of Relu as +0, and ReluGrad passes g
// (a NaN or Inf g too) only where x > 0.
func TestReluMasksSpecials(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	x := FromSlice([]float32{nan, negZero, -inf, 2, inf, -1}, 6)
	g := FromSlice([]float32{5, 5, 5, nan, inf, 5}, 6)
	requireIdentical(t, "Relu", Relu(x), FromSlice([]float32{0, 0, 0, 2, inf, 0}, 6))
	requireIdentical(t, "ReluGrad", ReluGrad(x, g), FromSlice([]float32{0, 0, 0, nan, inf, 0}, 6))
}

// FuzzActivationsMatchReference feeds arbitrary float32 bit patterns to
// ReLU forward, ReLU backward and SumRows: x is the input read as
// little-endian words, g the same words in reverse, and the fuzzer picks
// the row length.
func FuzzActivationsMatchReference(f *testing.F) {
	seed := make([]byte, 0, 4*len(activationSpecials))
	for _, b := range activationSpecials {
		seed = binary.LittleEndian.AppendUint32(seed, b)
	}
	f.Add(seed, uint8(1))
	f.Add(seed, uint8(8))
	f.Add(seed, uint8(len(activationSpecials)))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		words := len(data) / 4
		if words == 0 {
			return
		}
		cols := 1 + int(n)%words
		size := words / cols * cols
		x, g := New(size/cols, cols), New(size/cols, cols)
		for i := range size {
			x.data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			g.data[size-1-i] = x.data[i]
		}
		checkActivations(t, x, g, cols)
	})
}
