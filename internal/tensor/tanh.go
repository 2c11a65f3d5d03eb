package tensor

import "math"

// tanh and the tanh-approximated GELU are defined here, by Go loops this
// repository owns, rather than by whatever math.Tanh and math.Exp compile
// to: math.Exp on amd64 switches to fused multiply-adds when the
// processor has them, and on arm64 the compiler fuses float64 products,
// so the standard library gives no result that is the same everywhere.
//
// tanhDef is math.Tanh's algorithm (Cephes, as in math/tanh.go): ±1
// above 44.01; 1 − 2/(e^{2|u|}+1) from 0.625; below that the rational
// P/Q. Its e^w is math.Exp's amd64 algorithm without fused
// instructions (Shibata/Sleef, math/exp_amd64.s): k = round(w·log₂e) to
// even, a two-part ln 2 reduction, ×1/16, the degree-8 Taylor series
// and four (x+2)·x squarings, then ×2^k. Every float64 product is
// written float64(x*y), which forbids fusing it into the add or
// subtract that follows (the float32() rule, ARCHITECTURE.md "Tensor
// kernels"). On amd64 these loops give every float32 input exactly the
// bits that float32(math.Tanh(x)) and the GELU expressions built on it
// gave there (tanh_test.go holds them to it; a flag runs all 2³² inputs).
//
// They are leaves under the contract of the matmul and stream leaves:
// on amd64 with AVX2 the leading multiple of four elements goes to
// tanh_amd64.s first, which computes both tanh forms four float64 lanes
// at a time and blends them, each value rounded where the loop here
// rounds it and no fused instruction (it says where it takes another
// route to the same bits).

// The Cephes tanh coefficients and cut-offs of math/tanh.go.
const (
	tanhMax   = 0.5 * 8.8029691931113054295988e+01 // ½·ln 2^127: |tanh| rounds to 1 above it
	tanhSmall = 0.625                              // the rational form below, the exponential form from it

	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3
)

// The constants of math/exp_amd64.s.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2Hi = 0.69314718055966295651160180568695068359375
	expLn2Lo = 0.28235290563031577122588448175013436025525412068e-12

	expE2 = 0.5
	expE3 = 1.6666666666666666667e-1
	expE4 = 4.1666666666666666667e-2
	expE5 = 8.3333333333333333333e-3
	expE6 = 1.3888888888888888889e-3
	expE7 = 1.9841269841269841270e-4
	expE8 = 2.4801587301587301587e-5
)

// The tanh approximation of GELU: u = c·(x + k·x³).
const (
	geluC = 0.7978845608028654 // √(2/π)
	geluK = 0.044715
)

// tanhExp is e^w for w in [1.25, 88.03], the arguments tanhDef's middle
// branch passes it; outside that range its result is not e^w.
func tanhExp(w float64) float64 {
	k := math.RoundToEven(float64(w * expLog2e))
	r := w - float64(k*expLn2Hi)
	r -= float64(k * expLn2Lo)
	r = float64(r * (1.0 / 16))
	p := float64(expE8*r) + expE7
	p = float64(p*r) + expE6
	p = float64(p*r) + expE5
	p = float64(p*r) + expE4
	p = float64(p*r) + expE3
	p = float64(p*r) + expE2
	p = float64(p*r) + 1
	r = float64(r * p)
	for range 4 {
		r = float64(r * (r + 2))
	}
	return float64((r + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// tanhDef is tanh(u), the definition every tanh in this package computes.
func tanhDef(u float64) float64 {
	z := math.Abs(u)
	switch {
	case z > tanhMax:
		return math.Copysign(1, u)
	case z >= tanhSmall:
		z = 1 - 2/(tanhExp(float64(2*z))+1)
		return math.Copysign(z, u)
	case u == 0:
		return u
	}
	s := float64(u * u)
	num := float64((float64(tanhP0*s)+tanhP1)*s) + tanhP2
	den := float64((float64((s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
	return u + float64(float64(u*s)*num)/den
}

// geluArg is GELU's tanh argument c·(x + k·x³) at x.
func geluArg(x float64) float64 {
	return float64(geluC * (x + float64(float64(float64(geluK*x)*x)*x)))
}

// geluDef is GELU at v: ½x·(1 + tanh u).
func geluDef(v float32) float32 {
	x := float64(v)
	return float32(float64(0.5*x) * (1 + tanhDef(geluArg(x))))
}

// geluSlope is GELU's derivative at v, ½(1 + t) + ½x·(1 − t²)·c(1 + 3k·x²)
// with t = tanh u, rounded to float32.
func geluSlope(v float32) float32 {
	x := float64(v)
	t := tanhDef(geluArg(x))
	du := float64(geluC * (1 + float64(float64(3*geluK*x)*x)))
	return float32(float64(0.5*(1+t)) + float64(float64(float64(0.5*x)*(1-float64(t*t)))*du))
}

// The three leaves, as tanhLeafVec's op. tanh_amd64.s compares op with
// these values.
const (
	opTanh = iota
	opGelu
	opGeluGrad
)

// tanhFloats is dst[i] = tanh(src[i]) for every i. src must be at least as
// long as dst.
func tanhFloats(dst, src []float32) {
	n := tanhLeafVec(opTanh, dst, src[:len(dst)], nil)
	for i, v := range src[n:len(dst)] {
		dst[n+i] = float32(tanhDef(float64(v)))
	}
}

// geluFloats is dst[i] = GELU(src[i]) for every i. src must be at least as
// long as dst.
func geluFloats(dst, src []float32) {
	n := tanhLeafVec(opGelu, dst, src[:len(dst)], nil)
	for i, v := range src[n:len(dst)] {
		dst[n+i] = geluDef(v)
	}
}

// geluGradFloats is dst[i] = g[i]·GELU′(x[i]) for every i, the product
// rounded to float32. x and g must be at least as long as dst.
func geluGradFloats(dst, x, g []float32) {
	n := tanhLeafVec(opGeluGrad, dst, x[:len(dst)], g[:len(dst)])
	g = g[:len(dst)]
	for i, v := range x[n:len(dst)] {
		dst[n+i] = g[n+i] * geluSlope(v)
	}
}
