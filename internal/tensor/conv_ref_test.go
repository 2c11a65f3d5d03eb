package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// The direct convolution loops autograd.Conv2D replaced, kept as the
// oracle: refConv2D is the cross-correlation plus the per-channel bias,
// refConv2DBackward its input, weight and bias gradients. They define
// the order in which an output element folds its taps, (ci, ky, kx),
// and a weight gradient element its positions, (image, oy, ox); the
// tiled matmuls under the op must fold them the same way.

func refConv2D(in, w, bias *tensor.Tensor, stride, pad int) *tensor.Tensor {
	n, cin, h, wd := in.Dims(0), in.Dims(1), in.Dims(2), in.Dims(3)
	cout, kh, kw := w.Dims(0), w.Dims(2), w.Dims(3)
	oh, ow := (h+2*pad-kh)/stride+1, (wd+2*pad-kw)/stride+1
	id, wdat := in.Data(), w.Data()
	out := tensor.New(n, cout, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							inBase := ((b*cin+ci)*h + iy) * wd
							wBase := ((co*cin+ci)*kh + ky) * kw
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								acc += float32(id[inBase+ix] * wdat[wBase+kx])
							}
						}
					}
					out.Data()[((b*cout+co)*oh+oy)*ow+ox] = acc + bias.Data()[co]
				}
			}
		}
	}
	return out
}

func refConv2DBackward(in, w, gout *tensor.Tensor, stride, pad int) (gin, gw, gb *tensor.Tensor) {
	n, cin, h, wd := in.Dims(0), in.Dims(1), in.Dims(2), in.Dims(3)
	cout, kh, kw := w.Dims(0), w.Dims(2), w.Dims(3)
	oh, ow := gout.Dims(2), gout.Dims(3)
	id, wdat := in.Data(), w.Data()
	gin, gw, gb = tensor.New(in.Shape()...), tensor.New(w.Shape()...), tensor.New(cout)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			var s float32
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gout.Data()[((b*cout+co)*oh+oy)*ow+ox]
					s += g
					if g == 0 {
						continue
					}
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							inBase := ((b*cin+ci)*h + iy) * wd
							wBase := ((co*cin+ci)*kh + ky) * kw
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= wd {
									continue
								}
								gin.Data()[inBase+ix] += float32(g * wdat[wBase+kx])
								gw.Data()[wBase+kx] += float32(g * id[inBase+ix])
							}
						}
					}
				}
			}
			gb.Data()[co] += s
		}
	}
	return gin, gw, gb
}

// convShape is one convolution: input [n, cin, h, w], weights [cout,
// cin, k, k].
type convShape struct {
	name                  string
	n, cin, h, w, cout, k int
	stride, pad           int
}

// convShapes are SmallCNN's two convolutions and three geometries they
// do not reach: stride 2, a 5×5 kernel over a wider pad, and 1×1.
var convShapes = []convShape{
	{"conv1", 8, 1, 12, 12, 8, 3, 1, 1},
	{"conv2", 8, 8, 6, 6, 16, 3, 1, 1},
	{"stride2", 2, 3, 7, 7, 4, 3, 2, 1},
	{"5x5", 2, 2, 9, 9, 3, 5, 2, 2},
	{"1x1", 2, 4, 5, 5, 6, 1, 1, 0},
}

// randSprinkled is N(0, 1) with about one element in eight an exact
// zero, of either sign.
func randSprinkled(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.RandN(rng, 1, shape...)
	for i := range t.Data() {
		switch rng.Intn(16) {
		case 0:
			t.Data()[i] = 0
		case 1:
			t.Data()[i] = float32(math.Copysign(0, -1))
		}
	}
	return t
}

// nanFilled is a tensor of the shape holding NaN: a gradient
// destination whose old contents must never be read.
func nanFilled(shape ...int) *tensor.Tensor {
	return tensor.Full(float32(math.NaN()), shape...)
}

// sameBits reports the first element at which got and want differ in
// their bit patterns, or -1.
func sameBits(got, want *tensor.Tensor) int {
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			return i
		}
	}
	return -1
}

// TestConv2DMatchesReference holds autograd.Conv2D to the direct loops
// on finite inputs with exact zeros in the input, the weights and the
// upstream gradient, at every shape of convShapes and under every body
// of the tiled kernels. The output and the weight gradient are bitwise
// equal. The input gradient sums over output channels before
// positions, and the bias gradient over all positions at once where the
// loops summed each image first: both are re-associated, and held to
// within 1e-4·(1+|want|). The weight and bias gradients are written
// into NaN-filled destinations, which become the leaves' Grad.
func TestConv2DMatchesReference(t *testing.T) {
	tensor.TileBodies(func(body string) {
		for _, s := range convShapes {
			rng := rand.New(rand.NewSource(int64(s.cin*100 + s.k)))
			in := autograd.NewLeaf(randSprinkled(rng, s.n, s.cin, s.h, s.w), true)
			w := autograd.NewLeaf(randSprinkled(rng, s.cout, s.cin, s.k, s.k), true)
			b := autograd.NewLeaf(tensor.RandN(rng, 1, s.cout), true)
			wDst, bDst := nanFilled(w.Value.Shape()...), nanFilled(s.cout)
			w.SetGradDestination(func() *tensor.Tensor { return wDst })
			b.SetGradDestination(func() *tensor.Tensor { return bDst })

			out := autograd.Conv2D(in, w, b, s.stride, s.pad)
			want := refConv2D(in.Value, w.Value, b.Value, s.stride, s.pad)
			gout := randSprinkled(rng, want.Shape()...)
			autograd.Backward(out, gout)
			gin, gw, gb := refConv2DBackward(in.Value, w.Value, gout, s.stride, s.pad)

			name := fmt.Sprintf("%s/%s", body, s.name)
			if !out.Value.SameShape(want) {
				t.Fatalf("%s: output shape %v, want %v", name, out.Value.Shape(), want.Shape())
			}
			if i := sameBits(out.Value, want); i >= 0 {
				t.Errorf("%s: output[%d] = %v, reference %v", name, i, out.Value.Data()[i], want.Data()[i])
			}
			if w.Grad != wDst || b.Grad != bDst {
				t.Errorf("%s: the weight and bias gradients are not their destinations", name)
			}
			if i := sameBits(w.Grad, gw); i >= 0 {
				t.Errorf("%s: weight grad[%d] = %v, reference %v", name, i, w.Grad.Data()[i], gw.Data()[i])
			}
			for _, c := range []struct {
				what      string
				got, want *tensor.Tensor
			}{{"input", in.Grad, gin}, {"bias", b.Grad, gb}} {
				worst := 0.0
				for i, v := range c.want.Data() {
					d := math.Abs(float64(c.got.Data()[i] - v))
					if !(d <= 1e-4*(1+math.Abs(float64(v)))) {
						t.Errorf("%s: %s grad[%d] = %v, reference %v", name, c.what, i, c.got.Data()[i], v)
						break
					}
					worst = max(worst, d)
				}
				t.Logf("%s: %s gradient within %.2g of the loops", name, c.what, worst)
			}
		}
	})
}

// conv2D runs autograd.Conv2D over constants with a zero bias.
func conv2D(in, w *tensor.Tensor, stride, pad int) *tensor.Tensor {
	b := tensor.New(w.Dims(0))
	return autograd.Conv2D(autograd.Constant(in), autograd.Constant(w), autograd.Constant(b), stride, pad).Value
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.FromSlice([]float32{1}, 1, 1, 1, 1)
	out := conv2D(in, w, 1, 0)
	if !out.Reshape(9).Equal(in.Reshape(9)) {
		t.Fatalf("1x1 identity conv = %v", out)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 2x2 sum kernel over a 3x3 input, stride 1, no padding.
	in := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	w := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	out := conv2D(in, w, 1, 0)
	want := tensor.FromSlice([]float32{12, 16, 24, 28}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("Conv2D = %v, want %v", out, want)
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	in := tensor.Ones(1, 1, 4, 4)
	w := tensor.Ones(1, 1, 3, 3)
	out := conv2D(in, w, 2, 1)
	if out.Dims(2) != 2 || out.Dims(3) != 2 {
		t.Fatalf("output shape %v, want [1 1 2 2]", out.Shape())
	}
	// Corner position covers a 2x2 region of ones.
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("corner = %v, want 4", out.At(0, 0, 0, 0))
	}
}

// TestConv2DRejectsMalformedShapes checks that an input or kernel that
// is not 4-D, mismatched channels and an output with no positions
// panic, naming what is wrong.
func TestConv2DRejectsMalformedShapes(t *testing.T) {
	for _, c := range []struct {
		in, w, b []int
		pad      int
		want     string
	}{
		{[]int{1, 4, 4}, []int{1, 1, 3, 3}, []int{1}, 1, "tensor: Conv2D shapes [1 4 4], [1 1 3 3] invalid"},
		{[]int{1, 2, 4, 4}, []int{1, 3, 3, 3}, []int{1}, 1, "tensor: Conv2D shapes [1 2 4 4], [1 3 3 3] invalid"},
		{[]int{1, 1, 2, 2}, []int{1, 1, 5, 5}, []int{1}, 0, "tensor: Conv2D output -2x-2 non-positive"},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, c.want) {
					t.Errorf("Conv2D(%v, %v, %v) panicked with %q, want %q", c.in, c.w, c.b, r, c.want)
				}
			}()
			autograd.Conv2D(autograd.Constant(tensor.New(c.in...)), autograd.Constant(tensor.New(c.w...)),
				autograd.Constant(tensor.New(c.b...)), 1, c.pad)
		}()
	}
}

// BenchmarkConvKernels times one forward and backward of SmallCNN's two
// convolutions, under autograd.Conv2D (op/) and the direct loops (ref/),
// the way a training step takes them: conv1's input is the data and
// gets no gradient, conv2's does. Each result is released:
//
//	go test -run '^$' -bench ConvKernels -cpu 1 ./internal/tensor
func BenchmarkConvKernels(b *testing.B) {
	for _, s := range convShapes[:2] {
		rng := rand.New(rand.NewSource(1))
		in := autograd.NewLeaf(tensor.RandN(rng, 1, s.n, s.cin, s.h, s.w), s.name != "conv1")
		w := autograd.NewLeaf(tensor.RandN(rng, 1, s.cout, s.cin, s.k, s.k), true)
		bias := autograd.NewLeaf(tensor.RandN(rng, 1, s.cout), true)
		oh, ow := (s.h+2*s.pad-s.k)/s.stride+1, (s.w+2*s.pad-s.k)/s.stride+1
		gout := tensor.RandN(rng, 1, s.n, s.cout, oh, ow)
		b.Run("op/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				out := autograd.Conv2D(in, w, bias, s.stride, s.pad)
				autograd.Backward(out, gout)
				out.Value.Release()
				for _, v := range []*autograd.Variable{in, w, bias} {
					if v.Grad != nil {
						v.Grad.Release()
						v.ZeroGrad()
					}
				}
			}
		})
		b.Run("ref/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				out := refConv2D(in.Value, w.Value, bias.Value, s.stride, s.pad)
				gin, gw, gb := refConv2DBackward(in.Value, w.Value, gout, s.stride, s.pad)
				for _, r := range []*tensor.Tensor{out, gin, gw, gb} {
					r.Release()
				}
			}
		})
	}
}
