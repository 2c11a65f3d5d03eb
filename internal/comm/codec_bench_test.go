package comm

import (
	"math/rand"
	"testing"
)

// kernelScales are the input magnitudes the codec kernels are timed at,
// chosen by where fp16's binary16 results land: all normal (a healthy
// gradient), straddling 2^-14 = 6.1e-5 element by element (where a
// kernel that branches on the range mispredicts every other element),
// and all subnormal (where the scalar decoder ran a normalisation loop
// per element).
var kernelScales = []struct {
	name string
	draw func(rng *rand.Rand) float32
}{
	{"normal", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 1e-2) }},
	{"mixed", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 1e-4) }},
	{"subnormal", func(rng *rand.Rand) float32 {
		v := float32(1e-6 + rng.Float64()*(4e-5-1e-6))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
}

// BenchmarkCodecKernels times the four codec kernels — encode, encode
// with error feedback, decode, decode-add — for every codec at every
// input scale, in ns per element, each next to the per-element scalar
// body it replaced (codec_ref_test.go's oracle; decode-add's baseline
// is the oracle's Decode into scratch plus the fold) measured in the
// same run. Run with -cpu 1: the kernels are single-threaded and the
// fold's fan-out would otherwise flatter the baseline.
func BenchmarkCodecKernels(b *testing.B) {
	const n = 1 << 17
	for _, rc := range refCodecs()[:3] {
		for _, scale := range kernelScales {
			rng := rand.New(rand.NewSource(18))
			data := make([]float32, n)
			for i := range data {
				data[i] = scale.draw(rng)
			}
			residual, out := make([]float32, n), make([]float32, n)
			frame := rc.codec.Encode(make([]byte, 0, rc.codec.EncodedSize(n)), data, nil, nil)
			dst := make([]byte, 0, rc.codec.EncodedSize(n))
			for _, k := range []struct {
				name string
				call func()
			}{
				{"encode", func() { dst = rc.codec.Encode(dst[:0], data, nil, nil) }},
				{"encode/scalar", func() { dst = rc.encode(dst[:0], data, nil) }},
				{"encode+residual", func() { dst = rc.codec.Encode(dst[:0], data, residual, nil) }},
				{"encode+residual/scalar", func() { dst = rc.encode(dst[:0], data, residual) }},
				{"decode", func() { _ = rc.codec.Decode(frame, out) }},
				{"decode/scalar", func() { _ = rc.decode(frame, out) }},
				{"decode-add", func() { _ = rc.codec.DecodeAdd(frame, out) }},
				{"decode-add/scalar", func() { _ = rc.decode(frame, residual); reduceInto(out, residual, Sum) }},
			} {
				b.Run(rc.codec.Name()+"/"+scale.name+"/"+k.name, func(b *testing.B) {
					clear(residual)
					clear(out)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k.call()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
				})
			}
		}
	}
}
