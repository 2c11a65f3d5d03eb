package tensor

import "fmt"

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
