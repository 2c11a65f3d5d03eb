package tensor

import (
	"fmt"
	"math"
)

func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := a.New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// AddInPlace accumulates src into dst elementwise. Sizes must match.
func AddInPlace(dst, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic("tensor: AddInPlace size mismatch")
	}
	AddFloats(dst.data, src.data)
}

// MulScalar returns a * s elementwise.
func MulScalar(a *Tensor, s float32) *Tensor {
	out := a.New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AddRow returns m + row broadcast over the leading dimensions: m has
// shape [..., n] and row has shape [n]. Used for bias addition.
func AddRow(m, row *Tensor) *Tensor {
	n := row.Size()
	if m.Size()%n != 0 || m.Dims(m.Dim()-1) != n {
		panic(fmt.Sprintf("tensor: AddRow shapes %v and %v incompatible", m.shape, row.shape))
	}
	out := m.New(m.shape...)
	for lo := 0; lo < len(m.data); lo += n {
		o, in := out.data[lo:][:n], m.data[lo:][:n]
		for j, b := range row.data {
			o[j] = in[j] + b
		}
	}
	return out
}

// SumRows reduces m of shape [..., n] over all leading dimensions,
// returning a tensor of shape [n]. It is the gradient of AddRow.
func SumRows(m *Tensor, n int) *Tensor {
	return SumRowsInto(m.New(n), m)
}

// SumRowsInto is SumRows written into dst, whose size is the row length
// n, and returns dst. What dst held is never read: it is cleared, then
// each row of m is added to it in order, so element j starts at +0 and
// adds m[0][j], m[1][j], … one at a time. This is how a bias gradient is
// written straight into its bucket slot.
func SumRowsInto(dst, m *Tensor) *Tensor {
	n := len(dst.data)
	if m.Size()%n != 0 {
		panic("tensor: SumRows size not divisible")
	}
	clear(dst.data)
	for lo := 0; lo < len(m.data); lo += n {
		AddFloats(dst.data, m.data[lo:lo+n])
	}
	return dst
}

// The two ReLU loops keep or clear every element by a bit mask and
// never branch on the data: after a ReLU about half the inputs are zero,
// in random places, and a branch on each of them is mispredicted about
// half the time.

// positive is all ones where v > 0 and zero elsewhere, NaN included. The
// comparison compiles to a conditional move, not a jump.
func positive(v float32) uint32 {
	m := uint32(0)
	if v > 0 {
		m = ^uint32(0)
	}
	return m
}

// Relu returns max(0, x) elementwise: x where x > 0, and +0 everywhere
// else, a NaN and −0 included.
func Relu(a *Tensor) *Tensor {
	out := a.New(a.shape...)
	o := out.data[:len(a.data)]
	for i, v := range a.data {
		o[i] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
	return out
}

// ReluGrad returns the gradient of Relu at x given the gradient g of its
// output: g where x > 0 (a NaN or Inf g included), and +0 everywhere
// else, a NaN x included. x and g must have the same size.
func ReluGrad(x, g *Tensor) *Tensor {
	if len(x.data) != len(g.data) {
		panic("tensor: ReluGrad size mismatch")
	}
	out := x.New(x.shape...)
	o, gd := out.data[:len(x.data)], g.data[:len(x.data)]
	for i, v := range x.data {
		o[i] = math.Float32frombits(math.Float32bits(gd[i]) & positive(v))
	}
	return out
}

// Tanh returns tanh(x) elementwise, by tanhDef (tanh.go).
func Tanh(a *Tensor) *Tensor {
	out := a.New(a.shape...)
	tanhFloats(out.data, a.data)
	return out
}

// Gelu returns the Gaussian error linear unit using the tanh approximation,
// matching the activation used in BERT: ½x·(1 + tanh(√(2/π)·(x +
// 0.044715x³))), evaluated in float64 by tanhDef (tanh.go).
func Gelu(a *Tensor) *Tensor {
	out := a.New(a.shape...)
	geluFloats(out.data, a.data)
	return out
}

// GeluGrad returns the gradient of Gelu at x given the gradient g of its
// output: g times GELU's derivative at x rounded to float32, the product
// in float32. x and g must have the same size.
func GeluGrad(x, g *Tensor) *Tensor {
	if len(x.data) != len(g.data) {
		panic("tensor: GeluGrad size mismatch")
	}
	out := x.New(x.shape...)
	geluGradFloats(out.data, x.data, g.data)
	return out
}
