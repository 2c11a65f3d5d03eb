package tensor

import (
	"math"
	"math/rand"
)

// RandN fills a new tensor of the given shape with samples from a normal
// distribution with the given standard deviation, using rng. Every rank in
// a DDP test seeds its rng identically so replicas start from the same
// state, mirroring the paper's broadcast-at-construction guarantee.
func RandN(rng *rand.Rand, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()) * std
	}
	return t
}

// RandUniform fills a new tensor with samples from [lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + float32((hi-lo)*rng.Float32())
	}
	return t
}

// KaimingUniform fills a new tensor using the fan-in-scaled uniform
// initialization PyTorch applies to Linear and Conv2d weights
// (bound = 1/sqrt(fanIn)).
func KaimingUniform(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	bound := float32(1 / math.Sqrt(float64(fanIn)))
	return RandUniform(rng, -bound, bound, shape...)
}
