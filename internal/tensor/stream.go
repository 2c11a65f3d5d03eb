package tensor

// The three elementwise float32 streams a gradient crosses between
// "bucket reduced" and "parameter updated": the fold of a peer's frame
// into the bucket, the 1/world scale that finishes an average, and the
// momentum update. They work on bare slices because their callers
// (internal/comm, internal/optim, internal/fsdp's shards) hold flat
// buffers, not tensors; AddInPlace and ScaleInPlace are the same two
// loops under their tensor names.
//
// They are leaves under the same contract as mulAdd4, mulAdd1 and
// dotRows (matmul.go): the loops here are the definition, and on amd64
// with AVX the leading multiple of eight elements goes to stream_amd64.s
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
