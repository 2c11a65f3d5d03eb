package autograd

import "repro/internal/tensor"

// Checkpoint runs fn without recording its internal autograd graph and
// recomputes it during the backward pass — activation checkpointing,
// the recomputation technique ZeRO (paper Section 7) uses to trade
// compute for activation memory.
//
// Forward: fn runs on a detached copy of x and only the output values
// are kept; the intermediate activations of the transient graph fn
// builds go back to the buffer pool as soon as Checkpoint returns,
// instead of living until the backward pass. Backward: fn is
// re-executed and backpropagated through, and the recomputed
// activations, output included, go back to the pool; gradients for
// parameters used inside fn accumulate into those parameters directly
// (and fire their post-hooks, so DDP's bucketed AllReduce works through
// checkpointed segments).
//
// fn must be deterministic between the two executions: layers with
// internal randomness (Dropout, LayerDrop) must replay the same
// decisions, and stateful layers (BatchNorm running stats) will observe
// the forward twice — prefer checkpointing pure segments.
func Checkpoint(fn func(*Variable) *Variable, x *Variable) *Variable {
	detached := Constant(x.Value)
	detachedOut := fn(detached)
	release(detachedOut, detached, true)
	backward := func(g *tensor.Tensor, req []request) []*tensor.Tensor {
		// The need is passed on: when nothing reads x's gradient, the
		// re-executed fn sees a constant and computes none.
		in := NewLeaf(x.Value, req[0].need)
		out := fn(in)
		Backward(out, g)
		release(out, in, false)
		if !req[0].need {
			return []*tensor.Tensor{nil}
		}
		if in.Grad == nil {
			// fn ignored its input (e.g. returned a constant); the
			// input gradient is zero.
			return []*tensor.Tensor{x.Value.New(x.Value.Shape()...)}
		}
		return []*tensor.Tensor{in.Grad}
	}
	// Unlike ordinary ops, the node must exist even when x itself does
	// not require grad: parameters captured inside fn still need the
	// backward re-execution to receive their gradients.
	return &Variable{Value: detachedOut.Value, requiresGrad: true, node: newNode("checkpoint", detachedOut.Value, backward, x)}
}
