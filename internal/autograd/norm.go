package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNormStats holds the per-channel batch statistics computed by
// BatchNorm's forward pass, which layers use to maintain running
// mean/variance buffers (the model buffers DDP broadcasts from rank 0).
type BatchNormStats struct {
	Mean, Var []float32
}

// BatchNorm normalizes per channel. Input x is either [n, c] or
// [n, c, h, w]; gamma and beta are [c]. When training is true batch
// statistics are used (and returned); otherwise the provided running
// statistics are used and stats is nil.
func BatchNorm(x, gamma, beta *Variable, runningMean, runningVar []float32, eps float32, training bool) (*Variable, *BatchNormStats) {
	xv := x.Value
	var n, c, spatial int
	switch xv.Dim() {
	case 2:
		n, c, spatial = xv.Dims(0), xv.Dims(1), 1
	case 4:
		n, c, spatial = xv.Dims(0), xv.Dims(1), xv.Dims(2)*xv.Dims(3)
	default:
		panic(fmt.Sprintf("autograd: BatchNorm on shape %v", xv.Shape()))
	}

	mean := make([]float32, c)
	variance := make([]float32, c)
	count := float32(n * spatial)
	if training {
		for ch := 0; ch < c; ch++ {
			var s float64
			for b := 0; b < n; b++ {
				base := (b*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					s += float64(xv.Data()[base+i])
				}
			}
			mean[ch] = float32(s / float64(count))
		}
		for ch := 0; ch < c; ch++ {
			var s float64
			m := float64(mean[ch])
			for b := 0; b < n; b++ {
				base := (b*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					d := float64(xv.Data()[base+i]) - m
					s += d * d
				}
			}
			variance[ch] = float32(s / float64(count))
		}
	} else {
		copy(mean, runningMean)
		copy(variance, runningVar)
	}

	invStd := make([]float32, c)
	for ch := 0; ch < c; ch++ {
		invStd[ch] = float32(1 / math.Sqrt(float64(variance[ch]+eps)))
	}

	xhat := tensor.New(xv.Shape()...)
	out := tensor.New(xv.Shape()...)
	gv, bv := gamma.Value.Data(), beta.Value.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				xh := (xv.Data()[base+i] - mean[ch]) * invStd[ch]
				xhat.Data()[base+i] = xh
				out.Data()[base+i] = float32(gv[ch]*xh) + bv[ch]
			}
		}
	}

	var stats *BatchNormStats
	if training {
		stats = &BatchNormStats{Mean: mean, Var: variance}
	}

	backward := func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gGamma := tensor.New(c)
		gBeta := tensor.New(c)
		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					gGamma.Data()[ch] += float32(g.Data()[base+i] * xhat.Data()[base+i])
					gBeta.Data()[ch] += g.Data()[base+i]
				}
			}
		}
		gx := tensor.New(xv.Shape()...)
		if training {
			// Full batch-norm backward: dx = (gamma*invStd/count) *
			// (count*dy - sum(dy) - xhat*sum(dy*xhat)).
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base := (b*c + ch) * spatial
					for i := 0; i < spatial; i++ {
						dy := g.Data()[base+i]
						gx.Data()[base+i] = gv[ch] * invStd[ch] / count *
							(float32(count*dy) - gBeta.Data()[ch] - float32(xhat.Data()[base+i]*gGamma.Data()[ch]))
					}
				}
			}
		} else {
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base := (b*c + ch) * spatial
					for i := 0; i < spatial; i++ {
						gx.Data()[base+i] = g.Data()[base+i] * gv[ch] * invStd[ch]
					}
				}
			}
		}
		return []*tensor.Tensor{gx, gGamma, gBeta}
	}
	return newOp("batchnorm", out, backward, x, gamma, beta), stats
}

// LayerNorm normalizes the last dimension of x [rows, dim] and applies
// gain and bias [dim], as used in transformer blocks.
func LayerNorm(x, gain, bias *Variable, eps float32) *Variable {
	xv := x.Value
	if xv.Dim() != 2 {
		panic(fmt.Sprintf("autograd: LayerNorm on shape %v", xv.Shape()))
	}
	rows, dim := xv.Dims(0), xv.Dims(1)
	xhat := tensor.New(rows, dim)
	invStd := make([]float32, rows)
	out := tensor.New(rows, dim)
	gv, bv := gain.Value.Data(), bias.Value.Data()
	for r := 0; r < rows; r++ {
		row := xv.Data()[r*dim : (r+1)*dim]
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		m := float32(s / float64(dim))
		var sq float64
		for _, v := range row {
			d := float64(v - m)
			sq += d * d
		}
		inv := float32(1 / math.Sqrt(sq/float64(dim)+float64(eps)))
		invStd[r] = inv
		for j, v := range row {
			xh := (v - m) * inv
			xhat.Data()[r*dim+j] = xh
			out.Data()[r*dim+j] = float32(gv[j]*xh) + bv[j]
		}
	}
	backward := func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gGain := tensor.New(dim)
		gBias := tensor.New(dim)
		gx := tensor.New(rows, dim)
		for r := 0; r < rows; r++ {
			var sumDy, sumDyXhat float32
			for j := 0; j < dim; j++ {
				dy := float32(g.Data()[r*dim+j] * gv[j])
				sumDy += dy
				sumDyXhat += float32(dy * xhat.Data()[r*dim+j])
				gGain.Data()[j] += float32(g.Data()[r*dim+j] * xhat.Data()[r*dim+j])
				gBias.Data()[j] += g.Data()[r*dim+j]
			}
			d := float32(dim)
			for j := 0; j < dim; j++ {
				dy := g.Data()[r*dim+j] * gv[j]
				gx.Data()[r*dim+j] = invStd[r] / d * (float32(d*dy) - sumDy - float32(xhat.Data()[r*dim+j]*sumDyXhat))
			}
		}
		return []*tensor.Tensor{gx, gGain, gBias}
	}
	return newOp("layernorm", out, backward, x, gain, bias)
}
