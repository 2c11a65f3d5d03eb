package autograd

import "repro/internal/tensor"

// Add returns a + b elementwise.
func Add(a, b *Variable) *Variable {
	out := tensor.Add(a.Value, b.Value)
	return newOp("add", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{g, g}
	}, a, b)
}

// Sub returns a - b elementwise.
func Sub(a, b *Variable) *Variable {
	out := tensor.Sub(a.Value, b.Value)
	return newOp("sub", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{g, tensor.Neg(g)}
	}, a, b)
}

// Mul returns a * b elementwise.
func Mul(a, b *Variable) *Variable {
	av, bv := a.Value, b.Value
	out := tensor.Mul(av, bv)
	return newOp("mul", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.Mul(g, bv), tensor.Mul(g, av)}
	}, a, b)
}

// MulScalar returns a * s.
func MulScalar(a *Variable, s float32) *Variable {
	out := tensor.MulScalar(a.Value, s)
	return newOp("mulScalar", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.MulScalar(g, s)}
	}, a)
}

// AddRow returns m + row with row broadcast over leading dimensions
// (bias addition).
func AddRow(m, row *Variable) *Variable {
	n := row.Value.Size()
	out := tensor.AddRow(m.Value, row.Value)
	return newOp("addRow", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		var grow *tensor.Tensor
		if req[1].need {
			grow = sumRows(req[1].into, g, n)
		}
		return []*tensor.Tensor{g, grow}
	}, m, row)
}

// sumRows is g summed over its rows of n, written into the destination
// the engine offered when there is one.
func sumRows(into, g *tensor.Tensor, n int) *tensor.Tensor {
	if into == nil {
		return tensor.SumRows(g, n)
	}
	return tensor.SumRowsInto(into, g)
}

// zeroedInto is where a gradient that is summed into belongs: the
// destination the engine offered, cleared, or a new tensor of the shape
// from like's pool when there is none.
func zeroedInto(into, like *tensor.Tensor, shape ...int) *tensor.Tensor {
	if into == nil {
		return like.New(shape...)
	}
	into.Zero()
	return into
}

// MulRow returns m * row with row broadcast over leading dimensions
// (per-feature scaling, e.g. a norm layer's gain).
func MulRow(m, row *Variable) *Variable {
	n := row.Value.Size()
	mv, rv := m.Value, row.Value
	out := tensor.MulRow(mv, rv)
	return newOp("mulRow", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		gm := tensor.MulRow(g, rv)
		prod := tensor.Mul(g, mv)
		defer prod.Release()
		return []*tensor.Tensor{gm, sumRows(req[1].into, prod, n)}
	}, m, row)
}

// MatMul returns the matrix product a·b for 2-D variables.
func MatMul(a, b *Variable) *Variable {
	av, bv := a.Value, b.Value
	out := tensor.MatMul(av, bv)
	return newOp("matmul", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		// dA = g·bᵀ, dB = aᵀ·g
		var da, db *tensor.Tensor
		if req[0].need {
			da = tensor.MatMulTransB(g, bv)
		}
		if req[1].need {
			db = matMulTransA(req[1].into, av, g)
		}
		return []*tensor.Tensor{da, db}
	}, a, b)
}

// matMulTransA is aᵀ·b, written into the destination the engine offered
// when there is one.
func matMulTransA(into, a, b *tensor.Tensor) *tensor.Tensor {
	if into == nil {
		return tensor.MatMulTransA(a, b)
	}
	return tensor.MatMulTransAInto(into, a, b)
}

// MatMulTransB returns a·bᵀ for a [m,k] and b [n,k] — the form attention
// scores take (q·kᵀ) without materializing the transpose.
func MatMulTransB(a, b *Variable) *Variable {
	av, bv := a.Value, b.Value
	out := tensor.MatMulTransB(av, bv)
	return newOp("matmulTransB", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		// C = A·Bᵀ: dA = g·B, dB = gᵀ·A.
		var da, db *tensor.Tensor
		if req[0].need {
			da = tensor.MatMul(g, bv)
		}
		if req[1].need {
			db = matMulTransA(req[1].into, g, av)
		}
		return []*tensor.Tensor{da, db}
	}, a, b)
}

// SliceCols returns columns [start, end) of a 2-D variable; the gradient
// scatters back into the corresponding columns. Used to split attention
// heads out of a fused projection.
func SliceCols(a *Variable, start, end int) *Variable {
	av := a.Value
	rows, cols := av.Dims(0), av.Dims(1)
	if start < 0 || end > cols || start >= end {
		panic("autograd: SliceCols range invalid")
	}
	width := end - start
	out := av.New(rows, width)
	for r := 0; r < rows; r++ {
		copy(out.Data()[r*width:(r+1)*width], av.Data()[r*cols+start:r*cols+end])
	}
	return newOp("sliceCols", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := av.New(rows, cols)
		for r := 0; r < rows; r++ {
			copy(gin.Data()[r*cols+start:r*cols+end], g.Data()[r*width:(r+1)*width])
		}
		return []*tensor.Tensor{gin}
	}, a)
}

// Reshape returns a view of a with a new shape; the gradient is reshaped
// back on the way down.
func Reshape(a *Variable, shape ...int) *Variable {
	inShape := a.Value.Shape()
	out := a.Value.Reshape(shape...)
	return newOp("reshape", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{g.Reshape(inShape...)}
	}, a)
}

// Relu returns max(0, x).
func Relu(a *Variable) *Variable {
	av := a.Value
	out := tensor.Relu(av)
	return newOp("relu", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.ReluGrad(av, g)}
	}, a)
}

// Tanh returns tanh(x).
func Tanh(a *Variable) *Variable {
	out := tensor.Tanh(a.Value)
	return newOp("tanh", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := out.New(out.Shape()...)
		gd, od, gg := gin.Data(), out.Data(), g.Data()
		for i := range gd {
			gd[i] = gg[i] * (1 - float32(od[i]*od[i]))
		}
		return []*tensor.Tensor{gin}
	}, a)
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(a *Variable) *Variable {
	out := tensor.Sigmoid(a.Value)
	return newOp("sigmoid", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := out.New(out.Shape()...)
		gd, od, gg := gin.Data(), out.Data(), g.Data()
		for i := range gd {
			gd[i] = gg[i] * od[i] * (1 - od[i])
		}
		return []*tensor.Tensor{gin}
	}, a)
}

// Gelu returns the tanh-approximated GELU activation.
func Gelu(a *Variable) *Variable {
	av := a.Value
	out := tensor.Gelu(av)
	return newOp("gelu", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.GeluGrad(av, g)}
	}, a)
}

// Sum reduces all elements to a scalar.
func Sum(a *Variable) *Variable {
	av := a.Value
	out := tensor.Sum(av)
	return newOp("sum", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := av.New(av.Shape()...)
		gin.Fill(g.Item())
		return []*tensor.Tensor{gin}
	}, a)
}

// Mean reduces all elements to their scalar mean.
func Mean(a *Variable) *Variable {
	av := a.Value
	out := tensor.Mean(av)
	inv := 1 / float32(av.Size())
	return newOp("mean", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := av.New(av.Shape()...)
		gin.Fill(g.Item() * inv)
		return []*tensor.Tensor{gin}
	}, a)
}

// AddChannel returns m + bias with bias [c] broadcast over a 4-D tensor
// [n, c, h, w] (convolution bias addition).
func AddChannel(m, bias *Variable) *Variable {
	mv := m.Value
	n, c := mv.Dims(0), mv.Dims(1)
	spatial := mv.Size() / (n * c)
	bv := bias.Value
	out := mv.New(mv.Shape()...)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * spatial
			bval := bv.Data()[ch]
			for i := 0; i < spatial; i++ {
				out.Data()[base+i] = mv.Data()[base+i] + bval
			}
		}
	}
	return newOp("addChannel", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		gb := zeroedInto(req[1].into, mv, c)
		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * spatial
				var s float32
				for i := 0; i < spatial; i++ {
					s += g.Data()[base+i]
				}
				gb.Data()[ch] += s
			}
		}
		return []*tensor.Tensor{g, gb}
	}, m, bias)
}

// Conv2D applies a 2-D convolution (see tensor.Conv2D).
func Conv2D(in, w *Variable, stride, pad int) *Variable {
	iv, wv := in.Value, w.Value
	out := tensor.Conv2D(iv, wv, stride, pad)
	return newOp("conv2d", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin, gw := tensor.Conv2DBackward(iv, wv, g, stride, pad)
		return []*tensor.Tensor{gin, gw}
	}, in, w)
}

// AvgPool2D applies global average pooling over [n,c,h,w] -> [n,c].
func AvgPool2D(in *Variable) *Variable {
	iv := in.Value
	h, w := iv.Dims(2), iv.Dims(3)
	out := tensor.AvgPool2D(iv)
	return newOp("avgpool2d", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.AvgPool2DBackward(g, h, w)}
	}, in)
}

// MaxPool2D applies 2x2/stride-2 max pooling.
func MaxPool2D(in *Variable) *Variable {
	iv := in.Value
	out, arg := tensor.MaxPool2D(iv)
	shape := iv.Shape()
	return newOp("maxpool2d", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{tensor.MaxPool2DBackward(g, arg, shape)}
	}, in)
}

// Embedding gathers rows of weight [vocab, dim] by index, producing
// [len(indices), dim]. The gradient scatters back into the weight rows.
func Embedding(w *Variable, indices []int) *Variable {
	wv := w.Value
	dim := wv.Dims(1)
	out := wv.New(len(indices), dim)
	for i, idx := range indices {
		copy(out.Data()[i*dim:(i+1)*dim], wv.Data()[idx*dim:(idx+1)*dim])
	}
	return newOp("embedding", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gw := wv.New(wv.Shape()...)
		for i, idx := range indices {
			row := gw.Data()[idx*dim : (idx+1)*dim]
			grow := g.Data()[i*dim : (i+1)*dim]
			for j := range row {
				row[j] += grow[j]
			}
		}
		return []*tensor.Tensor{gw}
	}, w)
}

// Dropout zeroes each element with probability p and scales survivors by
// 1/(1-p) (inverted dropout). mask is sampled with the caller's RNG via
// the keep slice so distributed ranks can coordinate seeds.
func Dropout(a *Variable, keep []bool, p float32) *Variable {
	if p <= 0 {
		return a
	}
	scale := 1 / (1 - p)
	av := a.Value
	out := av.New(av.Shape()...)
	od, ad := out.Data(), av.Data()
	for i := range od {
		if keep[i] {
			od[i] = ad[i] * scale
		}
	}
	return newOp("dropout", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := av.New(av.Shape()...)
		gd, gg := gin.Data(), g.Data()
		for i := range gd {
			if keep[i] {
				gd[i] = gg[i] * scale
			}
		}
		return []*tensor.Tensor{gin}
	}, a)
}

// Concat concatenates 2-D variables along dimension 1 (columns). All
// inputs must share dim 0.
func Concat(vs ...*Variable) *Variable {
	rows := vs[0].Value.Dims(0)
	total := 0
	for _, v := range vs {
		total += v.Value.Dims(1)
	}
	out := vs[0].Value.New(rows, total)
	col := 0
	for _, v := range vs {
		c := v.Value.Dims(1)
		for r := 0; r < rows; r++ {
			copy(out.Data()[r*total+col:r*total+col+c], v.Value.Data()[r*c:(r+1)*c])
		}
		col += c
	}
	widths := make([]int, len(vs))
	for i, v := range vs {
		widths[i] = v.Value.Dims(1)
	}
	return newOp("concat", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		grads := make([]*tensor.Tensor, len(vs))
		col := 0
		for i, c := range widths {
			gi := out.New(rows, c)
			for r := 0; r < rows; r++ {
				copy(gi.Data()[r*c:(r+1)*c], g.Data()[r*total+col:r*total+col+c])
			}
			grads[i] = gi
			col += c
		}
		return grads
	}, vs...)
}
