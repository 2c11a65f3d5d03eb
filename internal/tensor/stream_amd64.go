package tensor

// The Go side of stream_amd64.s, in the shape of matmul_amd64.go: each
// Vec function does the leading multiple of eight elements and returns
// how many that was (zero without AVX); the loops in stream.go finish
// the rest. The callers have already cut every slice to the first one's
// length; the assembly trusts its arguments.

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
