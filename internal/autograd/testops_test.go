package autograd

import "repro/internal/tensor"

// The ops below build the tests' losses and fan-in graphs; no model of
// the library needs them, so they live beside the tests.

// zip returns f(a[i], b[i mod len(b)]) elementwise: b is a tensor of
// a's size, or a row broadcast over a's leading dimensions.
func zip(a, b *tensor.Tensor, f func(x, y float32) float32) *tensor.Tensor {
	out := a.New(a.Shape()...)
	bd := b.Data()
	for i, x := range a.Data() {
		out.Data()[i] = f(x, bd[i%len(bd)])
	}
	return out
}

func minus(x, y float32) float32 { return x - y }
func times(x, y float32) float32 { return x * y }

// sub returns a - b elementwise.
func sub(a, b *Variable) *Variable {
	out := zip(a.Value, b.Value, minus)
	return newOp("sub", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{g, tensor.MulScalar(g, -1)}
	}, a, b)
}

// mul returns a * b elementwise.
func mul(a, b *Variable) *Variable {
	av, bv := a.Value, b.Value
	out := zip(av, bv, times)
	return newOp("mul", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{zip(g, bv, times), zip(g, av, times)}
	}, a, b)
}

// mulRow returns m * row with row broadcast over leading dimensions.
func mulRow(m, row *Variable) *Variable {
	n := row.Value.Size()
	mv, rv := m.Value, row.Value
	out := zip(mv, rv, times)
	return newOp("mulRow", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		gm := zip(g, rv, times)
		prod := zip(g, mv, times)
		defer prod.Release()
		return []*tensor.Tensor{gm, sumRows(req[1].into, prod, n)}
	}, m, row)
}

// mean reduces all elements to their scalar mean.
func mean(a *Variable) *Variable {
	av := a.Value
	out := tensor.Scalar(tensor.Sum(av).Item() / float32(av.Size()))
	inv := 1 / float32(av.Size())
	return newOp("mean", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := av.New(av.Shape()...)
		gin.Fill(g.Item() * inv)
		return []*tensor.Tensor{gin}
	}, a)
}
