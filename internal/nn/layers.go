package nn

import (
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Linear is a fully-connected layer: y = x·W + b with W of shape
// [in, out] and b of shape [out].
type Linear struct {
	W, B *Parameter
	name string
}

// NewLinear constructs a Linear layer with PyTorch-style fan-in-scaled
// uniform initialization drawn from rng.
func NewLinear(rng *rand.Rand, name string, in, out int) *Linear {
	return &Linear{
		W:    NewParameter(name+".weight", tensor.KaimingUniform(rng, in, in, out)),
		B:    NewParameter(name+".bias", tensor.KaimingUniform(rng, in, out)),
		name: name,
	}
}

// Forward computes x·W + b for x of shape [batch, in].
func (l *Linear) Forward(x *autograd.Variable) *autograd.Variable {
	return autograd.AddRow(autograd.MatMul(x, l.W.Variable), l.B.Variable)
}

// Parameters returns [weight, bias] in registration order.
func (l *Linear) Parameters() []*Parameter { return []*Parameter{l.W, l.B} }

// Buffers returns nil; Linear has no buffers.
func (l *Linear) Buffers() []*Buffer { return nil }

// SetTraining is a no-op for Linear.
func (l *Linear) SetTraining(bool) {}

// Conv2d is a 2-D convolution layer with weight [out, in, k, k] and a
// per-output-channel bias.
type Conv2d struct {
	W, B        *Parameter
	Stride, Pad int
}

// NewConv2d constructs a Conv2d with kernel size k, given stride and
// padding.
func NewConv2d(rng *rand.Rand, name string, in, out, k, stride, pad int) *Conv2d {
	fanIn := in * k * k
	return &Conv2d{
		W:      NewParameter(name+".weight", tensor.KaimingUniform(rng, fanIn, out, in, k, k)),
		B:      NewParameter(name+".bias", tensor.KaimingUniform(rng, fanIn, out)),
		Stride: stride,
		Pad:    pad,
	}
}

// Forward convolves x [n, in, h, w] and adds the bias, producing
// [n, out, oh, ow]: one autograd.Conv2D, a matrix product over the
// input's im2col rows.
func (c *Conv2d) Forward(x *autograd.Variable) *autograd.Variable {
	return autograd.Conv2D(x, c.W.Variable, c.B.Variable, c.Stride, c.Pad)
}

// Parameters returns [weight, bias].
func (c *Conv2d) Parameters() []*Parameter { return []*Parameter{c.W, c.B} }

// Buffers returns nil.
func (c *Conv2d) Buffers() []*Buffer { return nil }

// SetTraining is a no-op.
func (c *Conv2d) SetTraining(bool) {}

// ReLU applies max(0, x).
type ReLU struct{ leafModule }

// Forward applies the activation.
func (ReLU) Forward(x *autograd.Variable) *autograd.Variable { return autograd.Relu(x) }

// Tanh applies tanh(x).
type Tanh struct{ leafModule }

// Forward applies the activation.
func (Tanh) Forward(x *autograd.Variable) *autograd.Variable { return autograd.Tanh(x) }

// Flatten reshapes [n, ...] to [n, rest].
type Flatten struct{ leafModule }

// Forward flattens all but the leading dimension.
func (Flatten) Forward(x *autograd.Variable) *autograd.Variable {
	return autograd.Reshape(x, x.Value.Dims(0), -1)
}

// MaxPool applies 2x2/stride-2 max pooling.
type MaxPool struct{ leafModule }

// Forward halves the spatial dimensions.
func (MaxPool) Forward(x *autograd.Variable) *autograd.Variable { return autograd.MaxPool2D(x) }

// Compile-time interface checks.
var (
	_ Module = (*Linear)(nil)
	_ Module = (*Conv2d)(nil)
	_ Module = ReLU{}
	_ Module = Tanh{}
	_ Module = Flatten{}
	_ Module = MaxPool{}
)
