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
	// tensor is the variable's alone — Backward installs a gradient it
	// owns or a clone — until a post-accumulation hook replaces it: DDP
	// points it at the parameter's bucket slot.
	Grad *tensor.Tensor

	name         string
	requiresGrad bool
	node         *node
	hooks        []Hook
}

// node records how a non-leaf variable was produced.
type node struct {
	op     string
	inputs []*Variable
	// backward maps the gradient of the node's output to gradients of
	// each input (nil entries for inputs that do not require grad).
	//
	// Contract: it only reads grad, and each tensor it returns is grad
	// itself, a Reshape view of grad, or a tensor it allocated and does
	// not retain. Backward hands these on without copying — a returned
	// tensor may end up as a leaf's Grad and be accumulated into in
	// place — so returning a captured forward value, or keeping a
	// reference to a returned tensor, corrupts gradients.
	backward func(grad *tensor.Tensor) []*tensor.Tensor
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
func newOp(op string, out *tensor.Tensor, backward func(grad *tensor.Tensor) []*tensor.Tensor, inputs ...*Variable) *Variable {
	if !anyRequiresGrad(inputs...) {
		return Constant(out)
	}
	return &Variable{
		Value:        out,
		requiresGrad: true,
		node: &node{
			op:       op,
			inputs:   append([]*Variable(nil), inputs...),
			backward: backward,
		},
	}
}

// accumulate adds a completed gradient into the leaf's Grad and fires
// its post-accumulation hooks. A first gradient the engine owns becomes
// Grad as is; one it does not own is cloned, so Grad never shares
// storage with anything else.
func (v *Variable) accumulate(g pendingGrad) {
	switch {
	case v.Grad != nil:
		tensor.AddInPlace(v.Grad, g.t)
	case g.owned:
		v.Grad = g.t
	default:
		v.Grad = g.t.Clone()
	}
	for _, h := range v.hooks {
		h(v)
	}
}
