package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// MSELoss returns mean((pred-target)^2) over all elements, the loss the
// paper's API example uses (nn.MSELoss).
func MSELoss(pred, target *Variable) *Variable {
	pv, tv := pred.Value, target.Value
	if !pv.SameShape(tv) {
		panic(fmt.Sprintf("autograd: MSELoss shapes %v vs %v", pv.Shape(), tv.Shape()))
	}
	n := float32(pv.Size())
	var sum float64
	for i, p := range pv.Data() {
		d := float64(p - tv.Data()[i])
		sum += float64(d * d)
	}
	out := tensor.Scalar(float32(sum) / n)
	return newOp("mse", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		scale := 2 * g.Item() / n
		gp := pv.New(pv.Shape()...)
		gt := pv.New(tv.Shape()...)
		for i := range gp.Data() {
			d := (pv.Data()[i] - tv.Data()[i]) * scale
			gp.Data()[i] = d
			gt.Data()[i] = -d
		}
		return []*tensor.Tensor{gp, gt}
	}, pred, target)
}

// CrossEntropyLoss computes mean negative log-likelihood of integer
// targets under softmax(logits), fused for numerical stability — the
// CrossEntropyLoss the paper's experiments use. logits is [batch, classes].
func CrossEntropyLoss(logits *Variable, targets []int) *Variable {
	lv := logits.Value
	if lv.Dim() != 2 {
		panic(fmt.Sprintf("autograd: CrossEntropyLoss on shape %v", lv.Shape()))
	}
	batch, classes := lv.Dims(0), lv.Dims(1)
	if len(targets) != batch {
		panic(fmt.Sprintf("autograd: %d targets for batch %d", len(targets), batch))
	}
	logp := tensor.LogSoftmaxRows(lv)
	var sum float64
	for i, t := range targets {
		if t < 0 || t >= classes {
			panic(fmt.Sprintf("autograd: target %d out of range [0,%d)", t, classes))
		}
		sum -= float64(logp.At(i, t))
	}
	logp.Release()
	out := tensor.Scalar(float32(sum) / float32(batch))
	return newOp("crossEntropy", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		sm := tensor.SoftmaxRows(lv)
		defer sm.Release()
		scale := g.Item() / float32(batch)
		gl := lv.New(batch, classes)
		for i := 0; i < batch; i++ {
			for j := 0; j < classes; j++ {
				d := sm.At(i, j)
				if j == targets[i] {
					d--
				}
				gl.Set(d*scale, i, j)
			}
		}
		return []*tensor.Tensor{gl}
	}, logits)
}

// SoftmaxRows applies a row-wise softmax as a differentiable op (used by
// attention). a is [rows, cols].
func SoftmaxRows(a *Variable) *Variable {
	out := tensor.SoftmaxRows(a.Value)
	rows, cols := out.Dims(0), out.Dims(1)
	return newOp("softmax", out, func(g *tensor.Tensor, _ []request) []*tensor.Tensor {
		gin := out.New(rows, cols)
		for i := 0; i < rows; i++ {
			srow := out.Data()[i*cols : (i+1)*cols]
			grow := g.Data()[i*cols : (i+1)*cols]
			var dot float32
			for j := range srow {
				dot += float32(srow[j] * grow[j])
			}
			irow := gin.Data()[i*cols : (i+1)*cols]
			for j := range srow {
				irow[j] = srow[j] * (grow[j] - dot)
			}
		}
		return []*tensor.Tensor{gin}
	}, a)
}
