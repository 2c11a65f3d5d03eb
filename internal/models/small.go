package models

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
)

// NewMLP builds a small multi-layer perceptron classifier, the model the
// real-execution convergence experiments (paper Fig 11) train on the
// synthetic MNIST-like dataset. Every DDP rank must pass the same seed
// (mirroring the rank-0 broadcast guarantee; the broadcast aligns them
// anyway, but same seeds keep tests bitwise-reproducible).
func NewMLP(seed int64, in, hidden, classes int) nn.Module {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		nn.NewLinear(rng, "fc1", in, hidden),
		nn.ReLU{},
		nn.NewLinear(rng, "fc2", hidden, hidden),
		nn.ReLU{},
		nn.NewLinear(rng, "fc3", hidden, classes),
	)
}

// NewSmallCNN builds a compact convolutional classifier for image-shaped
// inputs [n, channels, size, size]: two conv+BN+pool stages and a linear
// head. It stands in for "ResNet on MNIST" in the Fig 11 reproduction
// (see ARCHITECTURE.md, "Substitutions and the experiment index"): it
// exercises the identical DDP code
// paths — many parameters of mixed sizes, BatchNorm buffers for the
// rank-0 broadcast — at laptop scale.
func NewSmallCNN(seed int64, channels, size, classes int) nn.Module {
	rng := rand.New(rand.NewSource(seed))
	convOut := size / 4 // two 2x2 pools
	return nn.NewSequential(
		nn.NewConv2d(rng, "conv1", channels, 8, 3, 1, 1),
		nn.NewBatchNorm("bn1", 8),
		nn.ReLU{},
		nn.MaxPool{},
		nn.NewConv2d(rng, "conv2", 8, 16, 3, 1, 1),
		nn.NewBatchNorm("bn2", 16),
		nn.ReLU{},
		nn.MaxPool{},
		nn.Flatten{},
		nn.NewLinear(rng, "fc", 16*convOut*convOut, classes),
	)
}

// NewTinyTransformer builds a miniature BERT-style encoder tower over
// pre-embedded inputs [tokens, dim]: `layers` pre-norm blocks of real
// multi-head self-attention plus a GELU feed-forward network, followed
// by a final LayerNorm. Parameter names and registration order follow
// the BERT layer layout so DDP buckets it the same way the full-size
// profile is bucketed.
func NewTinyTransformer(seed int64, dim, heads, ff, layers int) nn.Module {
	rng := rand.New(rand.NewSource(seed))
	seq := nn.NewSequential()
	for l := 0; l < layers; l++ {
		prefix := fmt.Sprintf("layer%d", l)
		seq.Append(nn.NewTransformerBlock(rng, prefix, dim, heads, ff))
	}
	seq.Append(nn.NewLayerNorm("final.ln", dim))
	return seq
}
