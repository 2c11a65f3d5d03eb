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
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns a * b elementwise.
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("Mul", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	checkSameShape("Div", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] / b.data[i]
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

// ScaleInPlace multiplies every element of t by s.
func ScaleInPlace(t *Tensor, s float32) { ScaleFloats(t.data, s) }

// AxpyInPlace computes dst += alpha*src elementwise.
func AxpyInPlace(dst *Tensor, alpha float32, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic("tensor: AxpyInPlace size mismatch")
	}
	mulAdd1(dst.data, alpha, src.data)
}

// AddScalar returns a + s elementwise.
func AddScalar(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + s
	}
	return out
}

// MulScalar returns a * s elementwise.
func MulScalar(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return MulScalar(a, -1) }

// AddRow returns m + row broadcast over the leading dimensions: m has
// shape [..., n] and row has shape [n]. Used for bias addition.
func AddRow(m, row *Tensor) *Tensor {
	n := row.Size()
	if m.Size()%n != 0 || m.Dims(m.Dim()-1) != n {
		panic(fmt.Sprintf("tensor: AddRow shapes %v and %v incompatible", m.shape, row.shape))
	}
	out := New(m.shape...)
	for lo := 0; lo < len(m.data); lo += n {
		o, in := out.data[lo:][:n], m.data[lo:][:n]
		for j, b := range row.data {
			o[j] = in[j] + b
		}
	}
	return out
}

// MulRow returns m * row with row broadcast over the leading dimensions.
func MulRow(m, row *Tensor) *Tensor {
	n := row.Size()
	if m.Size()%n != 0 || m.Dims(m.Dim()-1) != n {
		panic(fmt.Sprintf("tensor: MulRow shapes %v and %v incompatible", m.shape, row.shape))
	}
	out := New(m.shape...)
	for lo := 0; lo < len(m.data); lo += n {
		o, in := out.data[lo:][:n], m.data[lo:][:n]
		for j, b := range row.data {
			o[j] = in[j] * b
		}
	}
	return out
}

// SumRows reduces m of shape [..., n] over all leading dimensions,
// returning a tensor of shape [n]. It is the gradient of AddRow.
func SumRows(m *Tensor, n int) *Tensor {
	if m.Size()%n != 0 {
		panic("tensor: SumRows size not divisible")
	}
	out := New(n)
	for i, v := range m.data {
		out.data[i%n] += v
	}
	return out
}

// Apply returns f applied elementwise to a.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = f(v)
	}
	return out
}

// Relu returns max(0, x) elementwise.
func Relu(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 {
		if v > 0 {
			return v
		}
		return 0
	})
}

// Tanh returns tanh(x) elementwise.
func Tanh(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Tanh(float64(v))) })
}

// Sigmoid returns 1/(1+exp(-x)) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) })
}

// Gelu returns the Gaussian error linear unit using the tanh approximation,
// matching the activation used in BERT.
func Gelu(a *Tensor) *Tensor {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return Apply(a, func(v float32) float32 {
		x := float64(v)
		return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	})
}

// Exp returns e^x elementwise.
func Exp(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Exp(float64(v))) })
}

// Log returns ln(x) elementwise.
func Log(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Log(float64(v))) })
}

// Sqrt returns the elementwise square root.
func Sqrt(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Sqrt(float64(v))) })
}
