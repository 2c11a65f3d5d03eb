package tensor

// The Go side of stream_amd64.s, in the shape of matmul_amd64.go: each
// Vec function does the leading multiple of eight elements and returns
// how many that was (zero without AVX2); the loops in stream.go finish
// the rest. The callers have already cut every slice to the first one's
// length, except HalfEncode's optional ones, which halfEncodeVec checks;
// the assembly trusts its arguments.

// addAVX is dst[i] += src[i] over n elements, n a positive multiple of
// eight.
//
//go:noescape
func addAVX(dst *float32, n int, src *float32)

// scaleAVX is dst[i] *= s over n elements, n a positive multiple of eight.
//
//go:noescape
func scaleAVX(dst *float32, n int, s float32)

// momentumAVX is MomentumStep over n elements, n a positive multiple of
// eight.
//
//go:noescape
func momentumAVX(p *float32, n int, grad, vel *float32, lr, momentum float32)

func addVec(dst, src []float32) int {
	n := len(dst) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	addAVX(&dst[0], n, &src[:n][0])
	return n
}

func scaleVec(dst []float32, s float32) int {
	n := len(dst) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	scaleAVX(&dst[0], n, s)
	return n
}

func momentumVec(p, g, v []float32, lr, momentum float32) int {
	n := len(p) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	momentumAVX(&p[0], n, &g[:n][0], &v[:n][0], lr, momentum)
	return n
}

// halfEncodeAVX is HalfEncode over n elements, n a positive multiple of
// eight; a nil frame, residual or deq is one the call does not have.
//
//go:noescape
func halfEncodeAVX(frame *byte, data *float32, n int, residual, deq *float32) (dropped int)

func halfEncodeVec(frame []byte, data, residual, deq []float32) (n, dropped int) {
	n = len(data) &^ 7
	if !useAVX || n == 0 {
		return 0, 0
	}
	f, okF := leading(frame, 2*n)
	r, okR := leading(residual, n)
	d, okD := leading(deq, n)
	if !okF || !okR || !okD {
		return 0, 0 // a short optional slice: the Go loop's length guards decide
	}
	return n, halfEncodeAVX(f, &data[0], n, r, d)
}

// halfDecodeAVX is HalfDecode (add false) or HalfDecodeAdd (add true)
// over n elements, n a positive multiple of eight.
//
//go:noescape
func halfDecodeAVX(frame *byte, out *float32, n int, add bool)

// halfLandAVX is HalfLand over n elements, n a positive multiple of
// eight.
//
//go:noescape
func halfLandAVX(frame *byte, acc *float32, n int, s float32) (dropped int)

func halfDecodeVec(frame []byte, out []float32, add bool) int {
	n := len(out) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	halfDecodeAVX(&frame[:2*n][0], &out[0], n, add)
	return n
}

func halfLandVec(frame []byte, acc []float32, s float32) (n, dropped int) {
	n = len(acc) &^ 7
	if !useAVX || n == 0 {
		return 0, 0
	}
	return n, halfLandAVX(&frame[:2*n][0], &acc[0], n, s)
}

// leading returns &s[0] if s holds at least n elements and nil if it is
// empty; ok is false for anything in between.
func leading[T any](s []T, n int) (p *T, ok bool) {
	switch {
	case len(s) == 0:
		return nil, true
	case len(s) < n:
		return nil, false
	}
	return &s[0], true
}
