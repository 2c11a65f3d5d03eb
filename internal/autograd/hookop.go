package autograd

import "repro/internal/tensor"

// BackwardHook returns a variable with v's value whose backward pass
// calls fn before propagating the gradient — unchanged — into v's
// subgraph. Because the hook node is the consumer of v, topological
// order guarantees fn runs before the backward of every op that
// produced v; inserting one on a layer's forward output therefore
// gives a callback that fires just before that layer's own backward
// computation needs its weights. That is exactly the re-gather point
// ZeRO-3 parameter sharding needs: internal/fsdp frees non-owned
// parameter shards after each layer's forward and uses this hook to
// AllGather them back ahead of the layer's gradient math. When v does
// not participate in the graph the hook never fires (there is no
// backward to intercept) and a detached constant is returned.
func BackwardHook(v *Variable, fn func()) *Variable {
	return newOp("backward_hook", v.Value, func(grad *tensor.Tensor, _ []request) []*tensor.Tensor {
		fn()
		return []*tensor.Tensor{grad}
	}, v)
}
