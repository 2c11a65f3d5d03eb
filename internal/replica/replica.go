// Package replica defines the one seam between "this rank's
// data-parallel replica" and everything that drives a training step
// without caring how the replica keeps its state: the elastic agent,
// the chaos harness, the sharding ablation, ddptrain and the examples.
// The paper's first design rule (Sections 3.1 and 4.1) is that going
// distributed leaves the loop forward → backward → step alone; this
// interface is what makes going from replicated (internal/ddp) to
// sharded (internal/fsdp) leave it alone too.
//
// Two implementations exist: *fsdp.FSDP directly, and *ddp.Replica
// (DDP together with the optimizer it trains). Their constructors and
// Options stay concrete on purpose — how a replica is built is where
// the strategies genuinely differ — and one function above both,
// strategy.Build, turns a strategy name into a Replica for every binary
// and harness. ARCHITECTURE.md ("Replica seam") has the table of which
// method each strategy makes a no-op and why.
//
// Below the seam, both implementations embed Core, the lifecycle they
// share around their reduction engine, and align replicas through
// Align, as the elastic agent does when it re-seeds a world.
package replica

import (
	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
)

// Replica is one rank's share of a data-parallel training job.
type Replica interface {
	// Forward runs the model's forward pass with the wrapper's
	// bookkeeping (buffer broadcast, reducer reset, ZeRO-3 gathers).
	Forward(x *autograd.Variable) *autograd.Variable
	// Backward runs autograd from loss and completes the gradient
	// reduction. A sharded replica also applies the optimizer update
	// here, against its shard.
	Backward(loss *autograd.Variable) error
	// Step applies the optimizer update to the reduced gradients and
	// clears them; a no-op where Backward already fused the update.
	Step()
	// Parameters exposes the wrapped model's parameters. Call
	// Materialize first to read full values from a sharded replica.
	Parameters() []*nn.Parameter
	// NumBuckets reports the gradient bucket count.
	NumBuckets() int
	// Materialize brings the full parameter set into the model's
	// tensors — a collective every rank must reach together; a no-op
	// where parameters are replicated.
	Materialize() error
	// Rebind moves the replica onto a new process group after a world
	// change. The caller has placed the FULL parameters in the model's
	// tensors first and installs the rest of the state afterwards
	// (InstallState): a sharded replica re-derives its shards from
	// them, a replicated one only swaps the group and re-arms its
	// reducer.
	Rebind(pg comm.ProcessGroup) error
	// CaptureState returns the full optimizer and error-feedback state,
	// independent of world size. A collective where that state is
	// sharded (all ranks call it together, and a peer dying mid-gather
	// surfaces as the error); purely local otherwise.
	CaptureState() (State, error)
	// InstallState adopts state produced by CaptureState on any replica
	// of the same model, at any world size, slicing out what this rank
	// keeps. An empty vector leaves that part of the state alone.
	InstallState(State) error
	// HoldsFullState reports whether this rank's memory holds the whole
	// training state, so that a survivor can re-seed a reconfigured
	// world by broadcasting it. When false a lost rank's shards are gone
	// and recovery must roll back to a committed checkpoint.
	HoldsFullState() bool
}

// State is the training state a replica keeps beyond the model's own
// tensors, flattened in parameter order so it means the same thing at
// every world size and under every bucket layout.
type State struct {
	// Optimizer is the optimizer's flattened state (momentum; empty
	// when the optimizer keeps none or cannot flatten it).
	Optimizer []float32
	// Residuals is the wire codec's error-feedback residuals (empty
	// without one).
	Residuals []float32
}

// FlatState and SetFlatState make *State an optim.StateFlattener: the
// checkpoint layer serializes a captured State and restores into an
// empty one with no live optimizer at hand, which is how state crosses
// the points where no replica exists yet (a cold start restores before
// the first process group is built) or where the one that exists has
// the wrong shard layout (a rollback restores before Rebind).
func (s *State) FlatState() []float32 { return s.Optimizer }

// SetFlatState keeps a copy of flat as the optimizer state.
func (s *State) SetFlatState(flat []float32) error {
	s.Optimizer = append([]float32(nil), flat...)
	return nil
}
