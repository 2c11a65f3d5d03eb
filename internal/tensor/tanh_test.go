package tensor

import (
	"encoding/binary"
	"flag"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
)

// exhaustive runs TestTanhLeavesExhaustive, which takes minutes:
//
//	go test -run TestTanhLeavesExhaustive -exhaustive -timeout 30m ./internal/tensor
var exhaustive = flag.Bool("exhaustive", false, "run the tanh leaves over all 2³² float32 inputs")

// The expressions tanh.go replaced, kept as the oracle: tanh, GELU and
// GELU's derivative through math.Tanh, as Tanh, Gelu and autograd's GELU
// backward computed them. They hold the definitions only on amd64, whose
// math.Exp is the algorithm tanhExp writes out and whose compiler fuses
// nothing; elsewhere math.Exp is another algorithm and products may fuse,
// and the digests below pin the definitions instead.

func refTanh(v float32) float32 { return float32(math.Tanh(float64(v))) }

func refGelu(v float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
}

func refGeluSlope(v float32) float32 {
	const c = 0.7978845608028654
	x := float64(v)
	u := c * (x + 0.044715*x*x*x)
	t := math.Tanh(u)
	du := c * (1 + 3*0.044715*x*x)
	d := 0.5*(1+t) + 0.5*x*(1-t*t)*du
	return float32(d)
}

// tanhLeaf is one leaf with its definition and its oracle, each a map
// from an input to an output element; GELU's gradient runs with g = 1,
// whose product with the derivative is the derivative.
type tanhLeaf struct {
	name        string
	leaf        func(dst, src []float32)
	def, oracle func(float32) float32
}

var tanhLeaves = []tanhLeaf{
	{"tanh", tanhFloats, func(v float32) float32 { return float32(tanhDef(float64(v))) }, refTanh},
	{"gelu", geluFloats, geluDef, refGelu},
	{"gelu-grad", func(dst, src []float32) {
		ones := make([]float32, len(src))
		for i := range ones {
			ones[i] = 1
		}
		geluGradFloats(dst, src, ones)
	}, geluSlope, refGeluSlope},
}

// sameFloat is bit equality, with any NaN equal to any NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// canonicalBits is v's bits with every NaN written as one, for a digest.
func canonicalBits(v float32) uint32 {
	if v != v {
		return 0x7fc00000
	}
	return math.Float32bits(v)
}

// tanhSweep is what one sweep of the leaves found: per leaf, elements
// where the leaf departs from the definition and where the definition
// departs from the oracle (counted on amd64 only), and a digest of the
// definition's outputs.
type tanhSweep struct {
	leafMismatch, oracleMismatch [3]int64
	digest                       [3]uint64
}

// sweepTanhLeaves runs every leaf over xs, under the body useAVX selects,
// and compares each element with the definition, and on amd64 the
// definition with the oracle. It only reads useAVX, so sweeps may run
// concurrently.
func sweepTanhLeaves(xs []float32) tanhSweep {
	var s tanhSweep
	defs, out := make([]float32, len(xs)), make([]float32, len(xs))
	var word [4]byte
	for l, lf := range tanhLeaves {
		h := fnv.New64a()
		for i, v := range xs {
			defs[i] = lf.def(v)
			binary.LittleEndian.PutUint32(word[:], canonicalBits(defs[i]))
			h.Write(word[:])
			if runtime.GOARCH == "amd64" && !sameFloat(defs[i], lf.oracle(v)) {
				s.oracleMismatch[l]++
			}
		}
		s.digest[l] = h.Sum64()
		for i := range out {
			out[i] = -3.25 // no output of tanh, GELU or GELU′
		}
		lf.leaf(out, xs)
		for i := range out {
			if !sameFloat(out[i], defs[i]) {
				s.leafMismatch[l]++
			}
		}
	}
	return s
}

// firstFloat32 returns the smallest non-negative float32 at which the
// increasing function f reaches y.
func firstFloat32(f func(float64) float64, y float64) float32 {
	lo, hi := uint32(0), uint32(0x7f800000) // +0 … +Inf, ordered as integers
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(float64(math.Float32frombits(mid))) >= y {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float32frombits(lo)
}

// tanhStratified is the tier-1 sweep's inputs: the special values of the
// activation tests and a few ordinary ones; 64 float32 steps either side of every
// input at which tanh's argument crosses tanhSmall or tanhMax (the
// argument is x for Tanh and geluArg(x) for GELU), both signs; and every
// 2¹²-th bit pattern, its low twelve bits varied.
func tanhStratified() []float32 {
	var xs []float32
	for _, b := range activationSpecials {
		xs = append(xs, math.Float32frombits(b))
	}
	xs = append(xs, 1e-39, -7e-42, 1e-30, -3e-25, 3e38, -2.5e30, 0.5, -2, 3.75)
	for _, edge := range []float32{
		firstFloat32(func(x float64) float64 { return x }, tanhSmall),
		firstFloat32(func(x float64) float64 { return x }, tanhMax),
		firstFloat32(geluArg, tanhSmall),
		firstFloat32(geluArg, tanhMax),
	} {
		for d := int32(-64); d <= 64; d++ {
			v := math.Float32frombits(uint32(int32(math.Float32bits(edge)) + d))
			xs = append(xs, v, -v)
		}
	}
	for i := range uint32(1 << 20) {
		xs = append(xs, math.Float32frombits(i<<12|i&0xfff))
	}
	return xs
}

// stratifiedDigests are the definitions' digests over tanhStratified,
// identical on every architecture: ci/nofma.sh runs this test as a 386
// binary, which has no assembly body, no math.Exp assembly and another
// compiler, against the numbers amd64 wrote here.
var stratifiedDigests = [3]uint64{0xdbd872597e413255, 0xfef0c42de4c43c52, 0x7359acc114a82412}

// TestTanhLeavesStratified holds Tanh, Gelu and GeluGrad's leaves to
// their definitions under every body, the definitions to the expressions
// they replaced (amd64), and the definitions' outputs to fixed digests.
func TestTanhLeavesStratified(t *testing.T) {
	xs := tanhStratified()
	kernelBodies(func(body string) {
		s := sweepTanhLeaves(xs)
		for l, lf := range tanhLeaves {
			if n := s.leafMismatch[l]; n != 0 {
				t.Errorf("%s/%s departs from the definition on %d of %d inputs", body, lf.name, n, len(xs))
			}
			if n := s.oracleMismatch[l]; n != 0 {
				t.Errorf("%s: the definition departs from the math.Tanh expression on %d of %d inputs", lf.name, n, len(xs))
			}
			if s.digest[l] != stratifiedDigests[l] {
				t.Errorf("%s: digest %#016x, want %#016x", lf.name, s.digest[l], stratifiedDigests[l])
			}
		}
	})
}

// TestGeluAndTanhSpecials pins what the definitions do with the values
// that have no arithmetic: signed zeros keep their sign, ±Inf saturate,
// and GELU's slope at -Inf is NaN (x·0).
func TestGeluAndTanhSpecials(t *testing.T) {
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	x := FromSlice([]float32{0, negZero, inf, -inf, 1e-30, -1e-30}, 6)
	requireIdentical(t, "Tanh", Tanh(x), FromSlice([]float32{0, negZero, 1, -1, 1e-30, -1e-30}, 6))
	gelu := Gelu(x)
	for i, want := range []float32{0, negZero, inf} {
		if math.Float32bits(gelu.data[i]) != math.Float32bits(want) {
			t.Errorf("Gelu(%v) = %v, want %v", x.data[i], gelu.data[i], want)
		}
	}
	if v := gelu.data[3]; v == v {
		t.Errorf("Gelu(-Inf) = %v, want NaN (-Inf·0)", v)
	}
	grad := GeluGrad(x, Full(1, 6))
	if grad.data[0] != 0.5 || grad.data[1] != 0.5 {
		t.Errorf("GeluGrad at ±0 = %v, %v, want 0.5", grad.data[0], grad.data[1])
	}
}

// TestTanhLeavesExhaustive runs every float32 bit pattern through every
// leaf under the default body (the assembly, where the processor has
// AVX2; the Go loop is the definition), the definitions and, on amd64,
// the oracle, and reports every count; any departure fails. Run with
// -exhaustive.
func TestTanhLeavesExhaustive(t *testing.T) {
	if !*exhaustive {
		t.Skip("run with -exhaustive: all 2³² inputs take minutes")
	}
	const chunk = 1 << 16
	const chunks = 1 << 32 / chunk
	results := make([]tanhSweep, chunks)
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs := make([]float32, chunk)
			for c := range next {
				for i := range xs {
					xs[i] = math.Float32frombits(uint32(c*chunk + i))
				}
				results[c] = sweepTanhLeaves(xs)
			}
		}()
	}
	for c := range chunks {
		next <- c
	}
	close(next)
	wg.Wait()

	for l, lf := range tanhLeaves {
		var leaf, oracle int64
		h := fnv.New64a()
		var word [8]byte
		for _, r := range results {
			leaf += r.leafMismatch[l]
			oracle += r.oracleMismatch[l]
			binary.LittleEndian.PutUint64(word[:], r.digest[l])
			h.Write(word[:])
		}
		t.Logf("%s over 2³² inputs: %d departures of the leaf (assembly body: %v) from the definition, %d of the definition from the math.Tanh expression (counted on amd64), digest %#016x",
			lf.name, leaf, useAVX, oracle, h.Sum64())
		if leaf != 0 || oracle != 0 {
			t.Errorf("%s departs somewhere over 2³² inputs", lf.name)
		}
		if h.Sum64() != exhaustiveDigests[l] {
			t.Errorf("%s: digest %#016x, want %#016x", lf.name, h.Sum64(), exhaustiveDigests[l])
		}
	}
}

// exhaustiveDigests are TestTanhLeavesExhaustive's digests of the
// definitions' outputs, chunk digests of 2¹⁶ inputs hashed in order.
var exhaustiveDigests = [3]uint64{0x853339a8d4ce0be4, 0x2aa0243e52f8049e, 0xea9db2a8c2695b1e}

// FuzzGeluMatchesDefinition feeds arbitrary float32 bit patterns to
// Gelu, GeluGrad and Tanh under every body: x is the input read as
// little-endian words and g the same words in reverse. Every element must
// be its definition's, and on amd64 every definition the math.Tanh
// expression's.
func FuzzGeluMatchesDefinition(f *testing.F) {
	seed := make([]byte, 0, 4*len(activationSpecials))
	for _, b := range activationSpecials {
		seed = binary.LittleEndian.AppendUint32(seed, b)
	}
	f.Add(seed)
	f.Add(binary.LittleEndian.AppendUint32(nil, math.Float32bits(0.7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		x, g := New(n), New(n)
		for i := range n {
			x.data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			g.data[n-1-i] = x.data[i]
		}
		want := [3]*Tensor{New(n), New(n), New(n)}
		for i, v := range x.data {
			want[0].data[i] = geluDef(v)
			want[1].data[i] = g.data[i] * geluSlope(v)
			want[2].data[i] = float32(tanhDef(float64(v)))
			if runtime.GOARCH == "amd64" {
				for l, w := range [3]float32{refGelu(v), g.data[i] * refGeluSlope(v), refTanh(v)} {
					if !sameFloat(want[l].data[i], w) {
						t.Fatalf("%s(%#08x): definition %#08x, math.Tanh expression %#08x",
							[3]string{"Gelu", "GeluGrad", "Tanh"}[l], math.Float32bits(v), math.Float32bits(want[l].data[i]), math.Float32bits(w))
					}
				}
			}
		}
		kernelBodies(func(body string) {
			requireBitwise(t, body+"/Gelu", Gelu(x), want[0])
			requireBitwise(t, body+"/GeluGrad", GeluGrad(x, g), want[1])
			requireBitwise(t, body+"/Tanh", Tanh(x), want[2])
		})
	})
}
