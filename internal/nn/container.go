package nn

import (
	"math/rand"

	"repro/internal/autograd"
)

// Sequential chains modules, feeding each output into the next. Its
// parameter order is the concatenation of child parameter orders —
// the ordering DDP reverses when assigning buckets.
type Sequential struct {
	children []Module
}

// NewSequential constructs a Sequential container over the given modules.
func NewSequential(children ...Module) *Sequential {
	return &Sequential{children: children}
}

// Append adds a module to the end of the chain.
func (s *Sequential) Append(m Module) { s.children = append(s.children, m) }

// Children returns the contained modules in order.
func (s *Sequential) Children() []Module { return s.children }

// Forward applies every child in order.
func (s *Sequential) Forward(x *autograd.Variable) *autograd.Variable {
	for _, c := range s.children {
		x = c.Forward(x)
	}
	return x
}

// Parameters concatenates child parameters in registration order.
func (s *Sequential) Parameters() []*Parameter {
	var out []*Parameter
	for _, c := range s.children {
		out = append(out, c.Parameters()...)
	}
	return out
}

// Buffers concatenates child buffers in registration order.
func (s *Sequential) Buffers() []*Buffer {
	var out []*Buffer
	for _, c := range s.children {
		out = append(out, c.Buffers()...)
	}
	return out
}

// SetTraining recurses into all children.
func (s *Sequential) SetTraining(t bool) {
	for _, c := range s.children {
		c.SetTraining(t)
	}
}

// Residual wraps a module as y = x + f(x). Shapes must match.
type Residual struct {
	Body Module
}

// NewResidual constructs a residual wrapper around body.
func NewResidual(body Module) *Residual { return &Residual{Body: body} }

// Forward computes x + Body(x).
func (r *Residual) Forward(x *autograd.Variable) *autograd.Variable {
	return autograd.Add(x, r.Body.Forward(x))
}

// Parameters delegates to the body.
func (r *Residual) Parameters() []*Parameter { return r.Body.Parameters() }

// Buffers delegates to the body.
func (r *Residual) Buffers() []*Buffer { return r.Body.Buffers() }

// SetTraining delegates to the body.
func (r *Residual) SetTraining(t bool) { r.Body.SetTraining(t) }

// LayerDrop randomly skips its body during training forward passes with
// probability P — the structured-dropout technique of Section 6.2.2.
// All distributed replicas must construct LayerDrop with the same seed so
// they skip the same layers in the same iteration; skipped layers simply
// never enter the autograd graph, so with FindUnusedParameters enabled
// DDP marks their parameters ready at the end of the forward pass.
type LayerDrop struct {
	Body     Module
	P        float32
	rng      *rand.Rand
	training bool
	// Skipped reports whether the body was skipped in the most recent
	// forward pass.
	Skipped bool
}

// NewLayerDrop wraps body so it is skipped with probability p, sampling
// from a deterministic seed shared across ranks.
func NewLayerDrop(seed int64, p float32, body Module) *LayerDrop {
	return &LayerDrop{Body: body, P: p, rng: rand.New(rand.NewSource(seed)), training: true}
}

// Forward either applies the body or passes x through unchanged.
func (l *LayerDrop) Forward(x *autograd.Variable) *autograd.Variable {
	l.Skipped = false
	if l.training && l.rng.Float32() < l.P {
		l.Skipped = true
		return x
	}
	return l.Body.Forward(x)
}

// Parameters delegates to the body.
func (l *LayerDrop) Parameters() []*Parameter { return l.Body.Parameters() }

// Buffers delegates to the body.
func (l *LayerDrop) Buffers() []*Buffer { return l.Body.Buffers() }

// SetTraining toggles skipping; evaluation always runs the body.
func (l *LayerDrop) SetTraining(t bool) {
	l.training = t
	l.Body.SetTraining(t)
}

// Checkpointed wraps a module in activation checkpointing
// (autograd.Checkpoint): the body's intermediate activations are
// discarded after the forward pass and recomputed during backward,
// trading compute for memory — the recomputation technique the paper's
// Section 7 attributes to ZeRO. The body must be deterministic between
// the forward and backward executions (no Dropout/LayerDrop inside).
type Checkpointed struct {
	Body Module
}

// NewCheckpointed wraps body in activation checkpointing.
//
//ddplint:ignore reach activation recomputation (Section 7) is a paper feature only tests turn on until a model of the paper's needs it: ddp's and fsdp's checkpointed-segment tests and the root bench_test
func NewCheckpointed(body Module) Module { return &Checkpointed{Body: body} }

// Forward runs the body detached and schedules recomputation for the
// backward pass.
func (c *Checkpointed) Forward(x *autograd.Variable) *autograd.Variable {
	return autograd.Checkpoint(c.Body.Forward, x)
}

// Parameters delegates to the body.
func (c *Checkpointed) Parameters() []*Parameter { return c.Body.Parameters() }

// Buffers delegates to the body.
func (c *Checkpointed) Buffers() []*Buffer { return c.Body.Buffers() }

// SetTraining delegates to the body.
func (c *Checkpointed) SetTraining(t bool) { c.Body.SetTraining(t) }

var (
	_ Module = (*Sequential)(nil)
	_ Module = (*Residual)(nil)
	_ Module = (*LayerDrop)(nil)
	_ Module = (*Checkpointed)(nil)
)
