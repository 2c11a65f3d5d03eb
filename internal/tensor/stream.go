package tensor

import "math"

// The elementwise float32 streams a gradient crosses between "bucket
// reduced" and "parameter updated": the fold of a peer's frame into the
// bucket, the 1/world scale that finishes an average, and the momentum
// update — and, under fp16 compression, the binary16 quantizer that
// builds the frames, the decoders that read them and the two-rank
// exchange's landing. They work on bare slices because their callers
// (internal/comm, internal/optim, internal/fsdp's shards) hold flat
// buffers, not tensors; AddInPlace is the first under its tensor name.
//
// They are leaves under the same contract as mulAdd4, mulAdd1 and
// dotRows (matmul.go): the loops here are the definition, and on amd64
// with AVX2 the leading multiple of eight elements goes to stream_amd64.s
// first, where a lane is one element and every product is rounded by
// VMULPS before VADDPS or VSUBPS consumes it.

// AddFloats is dst[i] += src[i] for every i. src must be at least as
// long as dst.
func AddFloats(dst, src []float32) {
	v := addVec(dst, src[:len(dst)])
	dst = dst[v:]
	src = src[v:][:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// ScaleFloats is dst[i] *= s for every i.
func ScaleFloats(dst []float32, s float32) {
	dst = dst[scaleVec(dst, s):]
	for i := range dst {
		dst[i] *= s
	}
}

// MomentumStep is one momentum-SGD update without weight decay, in place
// on three slices of equal length: per element
//
//	v = momentum*v + g
//	p = p - lr*v
//
// each product rounded to float32 before it is added or subtracted. It
// is the case of optim.ShardedMomentumStep every trainer in this
// repository runs; that function documents the update and owns the
// other cases.
func MomentumStep(p, g, v []float32, lr, momentum float32) {
	n := momentumVec(p, g[:len(p)], v[:len(p)], lr, momentum)
	p = p[n:]
	g, v = g[n:][:len(p)], v[n:][:len(p)]
	for i := range p {
		u := float32(momentum*v[i]) + g[i]
		v[i] = u
		p[i] -= float32(lr * u)
	}
}

// The sign bit and the exponent field of a float32; a value is Inf or
// NaN exactly when the exponent field is all ones.
const (
	signMask = 0x80000000
	expMask  = 0x7f800000
)

// maxHalfBits is the float32 bit pattern of 65504, the largest finite
// half-precision value. HalfEncode saturates to it instead of ±Inf: a
// finite-but-out-of-range element must stay finite on the wire (an Inf
// frame element turns the whole reduced sum Inf) and must leave a finite
// residual — v-Inf is -Inf, which would poison the accumulator exactly
// like the non-finite inputs the drop guard exists for.
const maxHalfBits = 0x477fe000

// pointFive is the float32 bit pattern of 0.5.
const pointFive = 0x3f000000

// HalfEncode is the quantizer of comm's fp16 codec: it rounds data[i]
// (plus residual[i] under error feedback) to binary16 by halfBits' rule,
// saturating to ±65504, and writes the two little-endian bytes to frame,
// the float32 value they stand for to deq and the quantization error —
// against the unsaturated value — to residual. Each of frame, residual
// and deq is nil or long enough for every element (2·len(data) bytes,
// len(data) floats); deq may be data itself. A non-finite element is
// dropped: it travels as +0 and leaves a zero residual. Returned is the
// number dropped.
//
// The loop is one pass with no data-dependent branch but the
// out-of-range test, so normal and subnormal results cost the same.
func HalfEncode(frame []byte, data, residual, deq []float32) (dropped int) {
	n, dropped := halfEncodeVec(frame, data, residual, deq)
	data = data[n:]
	frame = frame[min(2*n, len(frame)):]
	residual = residual[min(n, len(residual)):]
	deq = deq[min(n, len(deq)):]
	for i, v := range data {
		if i < len(residual) {
			v += residual[i]
		}
		h, deqd, drop := halfQuantize(v)
		if drop {
			// Dropped: transmitted as +0, residual discarded (0 - 0).
			dropped++
			v = 0
		}
		if len(frame) >= 2 {
			frame[0], frame[1] = byte(h), byte(h>>8)
			frame = frame[2:]
		}
		if i < len(residual) {
			residual[i] = v - deqd
		}
		if i < len(deq) {
			deq[i] = deqd
		}
	}
	return dropped
}

// halfQuantize is HalfEncode's rule for one value v: h is the binary16
// bits it travels as and d the float32 value they stand for. A value
// past ±65504 saturates; a non-finite one is dropped (drop), travelling
// as +0.
func halfQuantize(v float32) (h uint32, d float32, drop bool) {
	b := math.Float32bits(v)
	a := b &^ signMask
	if a > maxHalfBits {
		if a >= expMask {
			return 0, 0, true
		}
		a = maxHalfBits
	}
	h, q := halfBits(a)
	return h | b>>16&0x8000, math.Float32frombits(q | b&signMask), false
}

// HalfDecode writes to out the float32 value of each binary16 element of
// frame, two little-endian bytes an element; frame holds at least
// 2·len(out) bytes. Every half has an exact float32 value (halfValue), a
// signaling NaN's payload included, so decoding rounds nothing.
func HalfDecode(frame []byte, out []float32) {
	for i := halfDecodeVec(frame, out, false); i < len(out); i++ {
		out[i] = halfValue(frame[2*i:])
	}
}

// HalfDecodeAdd is HalfDecode into scratch followed by acc[i] += scratch[i],
// without the scratch: one float32 addition an element.
func HalfDecodeAdd(frame []byte, acc []float32) {
	for i := halfDecodeVec(frame, acc, true); i < len(acc); i++ {
		acc[i] = acc[i] + halfValue(frame[2*i:])
	}
}

// HalfLand lands a peer's binary16 frame on the two-rank path of comm's
// fp16 AllReduce in one pass:
//
//	acc[i] = quant(acc[i] + dec(frame[i])) · s
//
// dec is HalfDecode's value, quant HalfEncode's rounding without a
// residual (saturating to ±65504; a non-finite sum is dropped to +0 and
// counted) and s the closing scale, 1 for a sum and 1/2 for a two-rank
// average. These are the float32 operations of HalfDecodeAdd, then
// HalfEncode(nil, acc, nil, acc), then ScaleFloats(acc, s), in that order,
// so the result and the drop count are theirs bit for bit. frame holds at
// least 2·len(acc) bytes; returned is the number dropped.
func HalfLand(frame []byte, acc []float32, s float32) (dropped int) {
	n, dropped := halfLandVec(frame, acc, s)
	for i := n; i < len(acc); i++ {
		_, d, drop := halfQuantize(acc[i] + halfValue(frame[2*i:]))
		if drop {
			dropped++
		}
		acc[i] = d * s
	}
	return dropped
}

// halfValue is the float32 value of the binary16 element in h[0:2],
// little-endian, exactly: a shift for normals, infinities and NaNs (whose
// payload, signaling or quiet, it keeps), and one exact conversion for
// zeros and subnormals, the multiples of 2^-24 below 2^-14.
func halfValue(h []byte) float32 {
	w := uint32(h[0]) | uint32(h[1])<<8
	sign, mag := w>>15<<31, w&0x7fff
	switch {
	case mag >= 0x7c00:
		return math.Float32frombits(sign | expMask | mag<<13)
	case mag >= 0x400:
		return math.Float32frombits(sign | (mag<<13 + 112<<23))
	}
	return math.Float32frombits(sign | math.Float32bits(float32(mag)*0x1p-24))
}

// halfBits rounds a non-negative float32 no larger than 65504, given as
// its bit pattern, to binary16: h is the half's bits and q the bit
// pattern of the float32 value they stand for. The rule is the one this
// repository has always shipped, kept bit for bit because frames,
// residuals and therefore training trajectories depend on it:
//
//   - a normal result (|x| >= 2^-14) is rounded to nearest, ties to even;
//   - a subnormal result (|x| < 2^-14, a multiple of 2^-24) is rounded
//     to nearest with ties UP (half-up): 2^-25 becomes 2^-24, 2.5*2^-24
//     becomes 3*2^-24. Anything below 2^-25 becomes zero (the caller
//     keeps the sign, so -1e-9 becomes -0).
//
// One float addition does the rounding, on either side of 2^-14 alike.
// m is the power of two whose float32 spacing is the half's spacing at
// a: 2^(e+13) for a in [2^e, 2^(e+1)) with e >= -14, and 0.5 below 2^-14,
// where halves are the multiples of 2^-24 — the subnormal case is adding
// 0.5. So the adder rounds a+m to the half's precision, to nearest with
// ties to even (m's own bits there are zero). s-m is exact and is q, and
// s's bits past m's count the half's steps above m: that count plus the
// half's exponent above 2^-14 is h (a sum that rounds up to the next
// binade carries into the exponent by itself).
//
// Below 2^-14 the input's lowest bit is set first: an exact tie has its
// low bits all zero, so this nudges it just above the tie and moves no
// other input across a rounding boundary, which turns the adder's
// ties-to-even into half-up.
func halfBits(a uint32) (h, q uint32) {
	m := a&expMask + 13<<23
	sub := uint32(int32(m-pointFive) >> 31) // all ones below 2^-14
	m = max(m, pointFive)
	s := math.Float32frombits(a|sub&1) + math.Float32frombits(m)
	q = math.Float32bits(s - math.Float32frombits(m))
	return math.Float32bits(s) - m + (m-pointFive)>>13, q
}
