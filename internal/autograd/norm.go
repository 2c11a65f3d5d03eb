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
					s += float64(d * d)
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

	// xhat is recomputed wherever it is read, by the one expression
	// (x-mean)*invStd: no normalized copy of x lives from forward to
	// backward, and every read sees the bits forward computed.
	out := xv.New(xv.Shape()...)
	xd, od := xv.Data(), out.Data()
	gv, bv := gamma.Value.Data(), beta.Value.Data()
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base, m, inv := (b*c+ch)*spatial, mean[ch], invStd[ch]
			for i := base; i < base+spatial; i++ {
				od[i] = float32(gv[ch]*((xd[i]-m)*inv)) + bv[ch]
			}
		}
	}

	var stats *BatchNormStats
	if training {
		stats = &BatchNormStats{Mean: mean, Var: variance}
	}

	backward := func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		gGamma := zeroedInto(req[1].into, xv, c)
		gBeta := zeroedInto(req[2].into, xv, c)
		for b := 0; b < n; b++ {
			for ch := 0; ch < c; ch++ {
				base, m, inv := (b*c+ch)*spatial, mean[ch], invStd[ch]
				for i := base; i < base+spatial; i++ {
					gGamma.Data()[ch] += float32(g.Data()[i] * ((xd[i] - m) * inv))
					gBeta.Data()[ch] += g.Data()[i]
				}
			}
		}
		gx := xv.New(xv.Shape()...)
		if training {
			// Full batch-norm backward: dx = (gamma*invStd/count) *
			// (count*dy - sum(dy) - xhat*sum(dy*xhat)).
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base, m, inv := (b*c+ch)*spatial, mean[ch], invStd[ch]
					for i := base; i < base+spatial; i++ {
						dy := g.Data()[i]
						gx.Data()[i] = gv[ch] * inv / count *
							(float32(count*dy) - gBeta.Data()[ch] - float32(((xd[i]-m)*inv)*gGamma.Data()[ch]))
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
	// Each row's mean and inverse deviation are kept, and xhat is
	// recomputed from them wherever it is read, by the one expression
	// (x-mean)*invStd: no normalized copy of x lives from forward to
	// backward, and every read sees the bits forward computed.
	mean, invStd := make([]float32, rows), make([]float32, rows)
	out := xv.New(rows, dim)
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
			sq += float64(d * d)
		}
		inv := float32(1 / math.Sqrt(sq/float64(dim)+float64(eps)))
		mean[r], invStd[r] = m, inv
		orow := out.Data()[r*dim : (r+1)*dim]
		for j, v := range row {
			orow[j] = float32(gv[j]*((v-m)*inv)) + bv[j]
		}
	}
	backward := func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		gGain := zeroedInto(req[1].into, xv, dim)
		gBias := zeroedInto(req[2].into, xv, dim)
		gx := xv.New(rows, dim)
		gg, gb := gGain.Data(), gBias.Data()
		for r := 0; r < rows; r++ {
			row, grow, gxrow := xv.Data()[r*dim:(r+1)*dim], g.Data()[r*dim:(r+1)*dim], gx.Data()[r*dim:(r+1)*dim]
			m, inv := mean[r], invStd[r]
			var sumDy, sumDyXhat float32
			for j, v := range row {
				dy := float32(grow[j] * gv[j])
				sumDy += dy
				xh := (v - m) * inv
				sumDyXhat += float32(dy * xh)
				gg[j] += float32(grow[j] * xh)
				gb[j] += grow[j]
			}
			d := float32(dim)
			for j, v := range row {
				dy := grow[j] * gv[j]
				gxrow[j] = inv / d * (float32(d*dy) - sumDy - float32(((v-m)*inv)*sumDyXhat))
			}
		}
		return []*tensor.Tensor{gx, gGain, gBias}
	}
	return newOp("layernorm", out, backward, x, gain, bias)
}
