package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fieldHalf is the oracle of the binary16 decoders: a half's value
// assembled field by field — the exponent rebiased from 15 to 127, the
// mantissa moved to the top of float32's, a subnormal converted as
// mant·2^-24, all ones in the exponent copied through with the payload —
// and the sign put on last.
func fieldHalf(h uint16) float32 {
	exp, mant := uint32(h>>10&0x1f), uint32(h&0x3ff)
	var f float32
	switch exp {
	case 0:
		f = float32(mant) / (1 << 24)
	case 0x1f:
		f = math.Float32frombits(expMask | mant<<13)
	default:
		f = math.Float32frombits((exp+112)<<23 | mant<<13)
	}
	return math.Float32frombits(math.Float32bits(f) | uint32(h&0x8000)<<16)
}

// allHalves is a frame holding every binary16 bit pattern once, in order.
func allHalves() []byte {
	frame := make([]byte, 2<<16)
	for h := range 1 << 16 {
		frame[2*h], frame[2*h+1] = byte(h), byte(h>>8)
	}
	return frame
}

// halfAccumulators are what TestHalfDecodeExhaustive adds every half
// onto: both zeros, subnormals of either format, the largest half either
// way, and a NaN.
var halfAccumulators = []float32{
	0, float32(math.Copysign(0, -1)), 1.0 / (1 << 24), -3.0 / (1 << 20), math.SmallestNonzeroFloat32,
	65504, -65504, float32(math.NaN()),
}

// TestHalfDecodeExhaustive puts all 65 536 halves through HalfDecode and
// HalfDecodeAdd under every body (the AVX2 body takes the whole frame, a
// multiple of eight) and through halfValue alone. The bodies agree with
// each other bit for bit and with fieldHalf bit for bit, NaN payloads
// included — a decoded signaling NaN stays signaling — except that where
// a NaN accumulator meets a NaN half, IEEE 754 lets the sum carry either
// payload (quieted), and which one a Go addition picks depends on how the
// compiler orders its operands.
func TestHalfDecodeExhaustive(t *testing.T) {
	frame := allHalves()
	// compare holds got to want bit for bit; acc is what the sums were
	// taken onto (0 for none).
	compare := func(what string, got []float32, want func(h int) float32, acc float32) {
		t.Helper()
		bad := 0
		for h, g := range got {
			w, half := want(h), fieldHalf(uint16(h))
			if math.Float32bits(g) == math.Float32bits(w) {
				continue
			}
			if acc != acc && half != half && (math.Float32bits(g) == quiet(acc) || math.Float32bits(g) == quiet(half)) {
				continue // two NaNs: either payload
			}
			if bad++; bad <= 5 {
				t.Errorf("%s: half %#04x gives %#08x, want %#08x", what, h, math.Float32bits(g), math.Float32bits(w))
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of 65536 halves differ", what, bad)
		}
	}
	out := make([]float32, 1<<16)
	for h := range out {
		out[h] = halfValue(frame[2*h:])
	}
	compare("halfValue", out, func(h int) float32 { return fieldHalf(uint16(h)) }, 0)
	bodies := map[string][][]float32{}
	kernelBodies(func(body string) {
		decoded := make([]float32, 1<<16)
		HalfDecode(frame, decoded)
		compare(body+" HalfDecode", decoded, func(h int) float32 { return fieldHalf(uint16(h)) }, 0)
		bodies[body] = append(bodies[body], decoded)
		for _, a := range halfAccumulators {
			sums := make([]float32, 1<<16)
			for i := range sums {
				sums[i] = a
			}
			HalfDecodeAdd(frame, sums)
			compare(fmt.Sprintf("%s HalfDecodeAdd onto %v", body, a), sums, func(h int) float32 { return a + fieldHalf(uint16(h)) }, a)
			bodies[body] = append(bodies[body], sums)
		}
	})
	for body, outputs := range bodies {
		if body == "go" {
			continue
		}
		for i, got := range outputs {
			compare(fmt.Sprintf("%s against go, output %d", body, i), got, func(h int) float32 { return bodies["go"][i][h] }, 0)
		}
	}
}

// quiet is the bits of NaN x with its quiet bit set, as an arithmetic
// operation returns it.
func quiet(x float32) uint32 { return math.Float32bits(x) | 0x00400000 }

// landingInputs are the value families the landing is compared on: each
// draws an accumulator value (this rank's quantized contribution) and a
// peer's value, whose frame is its HalfEncode.
var landingInputs = []struct {
	name string
	draw func(rng *rand.Rand) float32
}{
	{"N(0,1e-2)", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 1e-2) }},
	{"N(0,1e-4)", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 1e-4) }},
	{"subnormal", func(rng *rand.Rand) float32 {
		return float32((rng.Float64()*2 - 1) * 6e-5)
	}},
	{"saturating", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 5e4) }},
	{"signed zeros", func(rng *rand.Rand) float32 {
		return []float32{0, float32(math.Copysign(0, -1)), 1.0 / (1 << 26), -1.0 / (1 << 26)}[rng.Intn(4)]
	}},
}

// threePassLanding is what HalfLand fuses: the fold, the round trip in
// place, and the scale, which a sum skips.
func threePassLanding(frame []byte, acc []float32, s float32) (dropped int) {
	HalfDecodeAdd(frame, acc)
	dropped = HalfEncode(nil, acc, nil, acc)
	if s != 1 {
		ScaleFloats(acc, s)
	}
	return dropped
}

// TestHalfLandMatchesThreePasses holds HalfLand to threePassLanding under
// every body, for a sum and a two-rank average: the same bits and the
// same drop count on every value family, with accumulators quantized (as
// the pair path's are) and raw, and with frames that encode a value and
// frames of arbitrary bits (infinities and NaNs, which are dropped).
func TestHalfLandMatchesThreePasses(t *testing.T) {
	const n = 4099
	rng := rand.New(rand.NewSource(53))
	for _, in := range landingInputs {
		for _, quantized := range []bool{true, false} {
			for _, arbitrary := range []bool{false, true} {
				acc, peer := make([]float32, n), make([]float32, n)
				for i := range acc {
					acc[i], peer[i] = in.draw(rng), in.draw(rng)
				}
				if quantized {
					HalfEncode(nil, acc, nil, acc)
				}
				frame := make([]byte, 2*n)
				HalfEncode(frame, peer, nil, nil)
				if arbitrary {
					for i := 0; i < n; i += 1 + rng.Intn(4) {
						frame[2*i], frame[2*i+1] = byte(rng.Intn(256)), byte(rng.Intn(256))
					}
				}
				for _, s := range []float32{1, 0.5} {
					kernelBodies(func(body string) {
						what := fmt.Sprintf("%s %s quantized=%v arbitrary=%v s=%v", body, in.name, quantized, arbitrary, s)
						got, want := append([]float32(nil), acc...), append([]float32(nil), acc...)
						gotDropped := HalfLand(frame, got, s)
						wantDropped := threePassLanding(frame, want, s)
						if gotDropped != wantDropped {
							t.Fatalf("%s: dropped %d, three passes %d", what, gotDropped, wantDropped)
						}
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s: acc[%d] = %v (%#08x), three passes %v (%#08x)",
									what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					})
				}
			}
		}
	}
}
