package tensor

import "fmt"

// Conv2D computes a 2-D cross-correlation of input [n, cin, h, w] with
// weights [cout, cin, kh, kw], with the given stride and zero padding,
// returning [n, cout, oh, ow]. This is the forward kernel used by the
// nn.Conv2d layer; it is a direct (non-im2col) implementation, which is
// adequate for the small models trained for real in this reproduction.
func Conv2D(in, w *Tensor, stride, pad int) *Tensor {
	if in.Dim() != 4 || w.Dim() != 4 || in.shape[1] != w.shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D shapes %v, %v invalid", in.shape, w.shape))
	}
	n, cin, h, wd := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	cout, kh, kw := w.shape[0], w.shape[2], w.shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D output %dx%d non-positive", oh, ow))
	}
	out := in.New(n, cout, oh, ow)
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
								acc += float32(in.data[inBase+ix] * w.data[wBase+kx])
							}
						}
					}
					out.data[((b*cout+co)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// Conv2DBackward computes the gradients of Conv2D with respect to the
// input and the weights, given the upstream gradient gout of shape
// [n, cout, oh, ow]. It returns (gradInput, gradWeight).
func Conv2DBackward(in, w, gout *Tensor, stride, pad int) (gin, gw *Tensor) {
	n, cin, h, wd := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	cout, kh, kw := w.shape[0], w.shape[2], w.shape[3]
	oh, ow := gout.shape[2], gout.shape[3]
	gin = gout.New(in.shape...)
	gw = gout.New(w.shape...)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gout.data[((b*cout+co)*oh+oy)*ow+ox]
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
								gin.data[inBase+ix] += float32(g * w.data[wBase+kx])
								gw.data[wBase+kx] += float32(g * in.data[inBase+ix])
							}
						}
					}
				}
			}
		}
	}
	return gin, gw
}

// MaxPool2D computes 2x2/stride-2 max pooling of input [n, c, h, w],
// returning the pooled tensor and the argmax indices used by the
// backward pass.
func MaxPool2D(in *Tensor) (*Tensor, []int) {
	if in.Dim() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D on shape %v", in.shape))
	}
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := h/2, w/2
	out := in.New(n, c, oh, ow)
	arg := make([]int, n*c*oh*ow)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := ((b*c+ch)*h+oy*2)*w + ox*2
					best := in.data[bestIdx]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := ((b*c+ch)*h+oy*2+dy)*w + ox*2 + dx
							if in.data[idx] > best {
								best, bestIdx = in.data[idx], idx
							}
						}
					}
					o := ((b*c+ch)*oh+oy)*ow + ox
					out.data[o] = best
					arg[o] = bestIdx
				}
			}
		}
	}
	return out, arg
}

// MaxPool2DBackward routes gout back to the argmax positions recorded by
// MaxPool2D, producing the input gradient with the given input shape.
func MaxPool2DBackward(gout *Tensor, arg []int, inShape []int) *Tensor {
	gin := gout.New(inShape...)
	for o, idx := range arg {
		gin.data[idx] += gout.data[o]
	}
	return gin
}
