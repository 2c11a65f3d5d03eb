// Package autograd implements a dynamic reverse-mode automatic
// differentiation engine in the style of PyTorch's autograd.
//
// A fresh graph is recorded on every forward pass (Section 2.1 of the DDP
// paper): each differentiable operation allocates a node holding its
// backward function and input references. Backward walks the graph from
// the loss, accumulates gradients into leaf Variables, and fires
// post-accumulation hooks — the exact interception point
// DistributedDataParallel uses to trigger bucketed AllReduce while the
// backward pass is still running.
package autograd

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// Hook is a callback fired after a leaf variable's gradient for the
// current backward pass has been fully accumulated into Grad.
type Hook func(v *Variable)

// Variable wraps a tensor and participates in graph construction.
// Leaf variables (parameters, inputs) have no creator node; non-leaf
// variables remember the operation that produced them.
type Variable struct {
	// Value is the forward-pass data.
	Value *tensor.Tensor
	// Grad accumulates gradients across backward passes until ZeroGrad,
	// matching PyTorch's .grad accumulation semantics that no_sync
	// gradient accumulation depends on. Nil until first backward. The
	// tensor shares storage with nothing else the graph holds: Backward
	// installs a gradient it owns, a clone, or — when the backward
	// function that produced it wrote there — the tensor the variable's
	// gradient destination supplied (see SetGradDestination), which is
	// how a DDP parameter's Grad comes to be its bucket slot without a
	// copy. A post-accumulation hook may replace it.
	Grad *tensor.Tensor

	name         string
	requiresGrad bool
	node         *node
	hooks        []Hook
	gradDst      func() *tensor.Tensor
	// seen and kept carry the number of the latest release walk that
	// reached the variable, and that must keep its storage (see
	// Release).
	seen, kept uint64
}

// request is what Backward asks a node's backward function about one
// input.
type request struct {
	// need is false when nothing reads the input's gradient: the input
	// is a leaf that does not require one. The function may skip the
	// work and return nil for it.
	need bool
	// into, when non-nil, is where the input's gradient belongs: the
	// input is a leaf with a gradient destination and no Grad, and no
	// other gradient for it has been produced in this pass. A function
	// that honours it overwrites into — what it held is garbage — and
	// returns into itself for that input.
	into *tensor.Tensor
}

// node records how a non-leaf variable was produced.
type node struct {
	op     string
	inputs []*Variable
	// alias is the index of the input whose storage the output's Value
	// shares — a view, as Reshape and BackwardHook produce — or −1 when
	// the op allocated its output.
	alias int
	// backward maps the gradient of the node's output to gradients of
	// each input, given one request per input (nil entries for inputs
	// that need no gradient or receive none).
	//
	// Contract: it only reads grad, does not retain req, and each tensor
	// it returns is grad itself, a Reshape view of grad, the req[i].into
	// it was handed for that input, or a tensor it allocated and does
	// not retain. Backward hands these on without copying — a returned
	// tensor may end up as a leaf's Grad and be accumulated into in
	// place — so returning a captured forward value, or keeping a
	// reference to a returned tensor, corrupts gradients. Both halves of
	// a request are offers: a function that ignores them is still
	// correct, because Backward drops a gradient it did not need and a
	// gradient that did not land in its destination is a tensor like
	// any other.
	backward func(grad *tensor.Tensor, req []request) []*tensor.Tensor
}

// NewLeaf returns a leaf variable. If requiresGrad is true, gradients are
// accumulated into Grad during backward and hooks fire after accumulation.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Variable {
	return &Variable{Value: t, requiresGrad: requiresGrad}
}

// Constant returns a leaf variable that never requires grad.
func Constant(t *tensor.Tensor) *Variable { return NewLeaf(t, false) }

// NewNamedLeaf is NewLeaf with a debug name (parameter names in nn).
func NewNamedLeaf(name string, t *tensor.Tensor, requiresGrad bool) *Variable {
	v := NewLeaf(t, requiresGrad)
	v.name = name
	return v
}

// Name returns the debug name assigned at construction, if any.
func (v *Variable) Name() string { return v.name }

// SetName sets the debug name.
func (v *Variable) SetName(s string) { v.name = s }

// RequiresGrad reports whether backward accumulates a gradient for v.
func (v *Variable) RequiresGrad() bool { return v.requiresGrad }

// IsLeaf reports whether v was created by NewLeaf rather than an op.
func (v *Variable) IsLeaf() bool { return v.node == nil }

// RegisterPostAccumulateHook registers fn to run after each backward pass
// finishes accumulating v's gradient. This mirrors the gradient
// accumulator post-hooks DDP installs on every parameter (Algorithm 1,
// line 7 of the paper). Hooks run in registration order.
func (v *Variable) RegisterPostAccumulateHook(fn Hook) {
	v.hooks = append(v.hooks, fn)
}

// SetGradDestination registers where v's gradient belongs once a
// backward pass has produced it: dst returns a tensor of v's shape
// (whatever it holds is overwritten), or nil for "nowhere in
// particular". Backward calls dst when v has no Grad and exactly one
// gradient is about to be computed for it, and offers the result to the
// backward function that computes it; if that function writes there,
// the destination becomes v.Grad as is. Everything else — a gradient
// accumulated across passes or over several uses of v, an op that
// allocates its own result — leaves the destination untouched and Grad
// a tensor of v's own, for a hook to copy. DDP registers each
// parameter's bucket slot; a nil dst unregisters.
func (v *Variable) SetGradDestination(dst func() *tensor.Tensor) { v.gradDst = dst }

// ClearHooks removes all registered hooks.
func (v *Variable) ClearHooks() { v.hooks = nil }

// ZeroGrad clears the accumulated gradient.
func (v *Variable) ZeroGrad() { v.Grad = nil }

// String summarizes the variable.
func (v *Variable) String() string {
	kind := "leaf"
	if v.node != nil {
		kind = v.node.op
	}
	return fmt.Sprintf("Variable(%s %v grad=%t)", kind, v.Value.Shape(), v.requiresGrad)
}

// anyRequiresGrad reports whether graph construction is needed for an op
// with the given inputs.
func anyRequiresGrad(inputs ...*Variable) bool {
	for _, in := range inputs {
		if in.requiresGrad || in.node != nil {
			return true
		}
	}
	return false
}

// newOp wires up a non-leaf variable if any input participates in the
// graph; otherwise it returns a detached constant (pure inference).
func newOp(op string, out *tensor.Tensor, backward func(grad *tensor.Tensor, req []request) []*tensor.Tensor, inputs ...*Variable) *Variable {
	if !anyRequiresGrad(inputs...) {
		return Constant(out)
	}
	return &Variable{Value: out, requiresGrad: true, node: newNode(op, out, backward, inputs...)}
}

// newNode records an op that produced out from inputs.
func newNode(op string, out *tensor.Tensor, backward func(grad *tensor.Tensor, req []request) []*tensor.Tensor, inputs ...*Variable) *node {
	alias := slices.IndexFunc(inputs, func(in *Variable) bool { return out.SharesStorage(in.Value) })
	return &node{op: op, inputs: append([]*Variable(nil), inputs...), alias: alias, backward: backward}
}

// accumulate adds a completed gradient into the leaf's Grad and fires
// its post-accumulation hooks. A first gradient the engine owns becomes
// Grad as is; one it does not own is cloned, so Grad never shares
// storage with anything else. A gradient added into Grad, or cloned, is
// done with: the engine's claim on it ends.
func (v *Variable) accumulate(g pendingGrad) {
	switch {
	case v.Grad != nil:
		tensor.AddInPlace(v.Grad, g.t)
		g.drop()
	case g.owned:
		v.Grad = g.t
	default:
		v.Grad = g.t.Clone()
		g.drop()
	}
	for _, h := range v.hooks {
		h(v)
	}
}
