package tensor

import "fmt"

// MaxPool2D computes 2x2/stride-2 max pooling of input [n, c, h, w]:
// each output is its window's first largest element in row-major order.
func MaxPool2D(in *Tensor) *Tensor {
	if in.Dim() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D on shape %v", in.shape))
	}
	out := in.New(in.shape[0], in.shape[1], in.shape[2]/2, in.shape[3]/2)
	poolWindows(in, func(o, idx int) { out.data[o] = in.data[idx] })
	return out
}

// MaxPool2DBackward routes gout back to where MaxPool2D took each output
// from in, its forward input, producing the gradient of in. It finds the
// windows' largest elements again rather than keeping them from the
// forward pass.
func MaxPool2DBackward(gout, in *Tensor) *Tensor {
	gin := gout.New(in.shape...)
	poolWindows(in, func(o, idx int) { gin.data[idx] += gout.data[o] })
	return gin
}

// poolWindows calls at with each output index o of MaxPool2D over in and
// the index of its window's first largest element.
func poolWindows(in *Tensor, at func(o, idx int)) {
	h, w := in.shape[2], in.shape[3]
	oh, ow := h/2, w/2
	for p := range in.shape[0] * in.shape[1] {
		for oy := range oh {
			for ox := range ow {
				best := (p*h+oy*2)*w + ox*2
				for _, idx := range [4]int{best, best + 1, best + w, best + w + 1} {
					if in.data[idx] > in.data[best] {
						best = idx
					}
				}
				at((p*oh+oy)*ow+ox, best)
			}
		}
	}
}
