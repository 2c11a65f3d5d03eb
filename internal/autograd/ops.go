package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// Add returns a + b elementwise.
func Add(a, b *Variable) *Variable {
	out := tensor.Add(a.Value, b.Value)
	return newOp("add", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		return []*tensor.Tensor{g, g}
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

// Conv2D is the 2-D cross-correlation of in [n, cin, h, w] with w
// [cout, cin, kh, kw] at the given stride and zero padding, plus b
// [cout] on every element of its output channel: [n, cout, oh, ow]. It
// is a matrix product. The input is laid out as im2col rows, one per
// output position (image, oy, ox) and one column per tap (ci, ky, kx),
// a padded tap +0; tensor.MatMulTransB multiplies them by w viewed
// [cout, cin·kh·kw], and the result is transposed into channels.
// Every kernel starts an element at +0 and adds its rounded products in
// ascending order, so an output element sums its taps in (ci, ky, kx)
// order and a weight gradient element its positions in (image, oy, ox)
// order: the sums of the direct loops, bit for bit (conv_ref_test.go
// in tensor keeps them). The input gradient sums over cout first, so it
// is re-associated. The rows are drawn from the pool and handed back
// before the op returns; backward lays them out again.
func Conv2D(in, w, b *Variable, stride, pad int) *Variable {
	iv, wv := in.Value, w.Value
	if iv.Dim() != 4 || wv.Dim() != 4 || iv.Dims(1) != wv.Dims(1) {
		panic(fmt.Sprintf("tensor: Conv2D shapes %v, %v invalid", iv.Shape(), wv.Shape()))
	}
	c := conv{n: iv.Dims(0), cin: iv.Dims(1), h: iv.Dims(2), w: iv.Dims(3), kh: wv.Dims(2), kw: wv.Dims(3), stride: stride, pad: pad}
	c.oh = (c.h+2*pad-c.kh)/stride + 1
	c.ow = (c.w+2*pad-c.kw)/stride + 1
	if c.oh <= 0 || c.ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D output %dx%d non-positive", c.oh, c.ow))
	}
	cout, k, rows, plane := wv.Dims(0), c.cin*c.kh*c.kw, c.n*c.oh*c.ow, c.oh*c.ow
	wm := wv.Reshape(cout, k)
	cols := c.im2col(iv)
	prod := tensor.MatMulTransB(cols, wm)
	cols.Release()
	out := iv.New(c.n, cout, c.oh, c.ow)
	od, bd := out.Data(), b.Value.Data()
	transpose(od, prod.Data(), c.n, plane, cout)
	prod.Release()
	for lo := 0; lo < len(od); lo += plane {
		bias := bd[lo/plane%cout]
		for i := range od[lo : lo+plane] {
			od[lo+i] += bias
		}
	}
	return newOp("conv2d", out, func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		grows := g.New(rows, cout)
		transpose(grows.Data(), g.Data(), c.n, cout, plane)
		var gin, gw, gb *tensor.Tensor
		if req[1].need {
			if gw = req[1].into; gw == nil {
				gw = g.New(wv.Shape()...)
			}
			cols := c.im2col(iv)
			tensor.MatMulTransAInto(gw.Reshape(cout, k), grows, cols)
			cols.Release()
		}
		if req[2].need {
			gb = sumRows(req[2].into, grows, cout)
		}
		if req[0].need {
			gcols := tensor.MatMul(grows, wm)
			gin = g.New(iv.Shape()...)
			c.walk(gcols.Data(), gin.Data(), true)
			gcols.Release()
		}
		grows.Release()
		return []*tensor.Tensor{gin, gw, gb}
	}, in, w, b)
}

// conv is the geometry of one Conv2D: input [n, cin, h, w], kernel
// kh×kw, output oh×ow.
type conv struct{ n, cin, h, w, kh, kw, oh, ow, stride, pad int }

// im2col lays x out as Conv2D's rows, drawn from x's pool.
func (c conv) im2col(x *tensor.Tensor) *tensor.Tensor {
	cols := x.New(c.n*c.oh*c.ow, c.cin*c.kh*c.kw)
	c.walk(cols.Data(), x.Data(), false)
	return cols
}

// walk pairs the im2col rows cols with the input x they are laid out
// from: for each output position and each (ci, ky), the taps that fall
// inside x are one run in both. It copies each run from x into cols or,
// with scatter (col2im), adds it from cols into x, position by
// position. Padded taps are never touched.
func (c conv) walk(cols, x []float32, scatter bool) {
	k := c.cin * c.kh * c.kw
	for row := range c.n * c.oh * c.ow {
		img, oy, ox := row/(c.oh*c.ow), row/c.ow%c.oh, row%c.ow
		x0 := ox*c.stride - c.pad
		kx0, kx1 := max(0, -x0), min(c.kw, c.w-x0)
		if kx0 >= kx1 {
			continue
		}
		for ci := range c.cin {
			for ky := range c.kh {
				iy := oy*c.stride + ky - c.pad
				if iy < 0 || iy >= c.h {
					continue
				}
				xs := x[((img*c.cin+ci)*c.h+iy)*c.w+x0+kx0:][:kx1-kx0]
				cs := cols[row*k+(ci*c.kh+ky)*c.kw+kx0:][:kx1-kx0]
				if !scatter {
					copy(cs, xs)
					continue
				}
				for j, v := range cs {
					xs[j] += v
				}
			}
		}
	}
}

// transpose writes each of the n [r, c] blocks of src to dst as [c, r].
func transpose(dst, src []float32, n, r, c int) {
	for lo := 0; lo < n*r*c; lo += r * c {
		s, d := src[lo:][:r*c], dst[lo:][:r*c]
		for i := range r {
			for j := range c {
				d[j*r+i] = s[i*c+j]
			}
		}
	}
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
