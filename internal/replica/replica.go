// Package replica defines the one seam between "this rank's
// data-parallel replica" and everything that drives a training step
// without caring how the replica keeps its state: the elastic agent,
// the chaos harness, the sharding ablation, ddptrain and the examples.
// The paper's first design rule (Sections 3.1 and 4.1) is that going
// distributed leaves the training loop alone; this interface is what
// makes going from replicated (internal/ddp) to sharded (internal/fsdp)
// leave it alone too. A step is Forward, then Backward, which ends
// with the momentum-SGD update applied under either strategy.
//
// Two implementations exist: *fsdp.FSDP directly, and *ddp.Replica
// (DDP together with the momentum update it applies). Their constructors and
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
	"reflect"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
)

// Replica is one rank's share of a data-parallel training job.
type Replica interface {
	// Forward runs the model's forward pass with the wrapper's
	// bookkeeping (buffer broadcast, reducer reset, ZeRO-3 gathers).
	Forward(x *autograd.Variable) *autograd.Variable
	// Backward runs autograd from loss, completes the gradient
	// reduction and applies the momentum-SGD update (a sharded replica
	// against its shard), then clears the gradients. An iteration that
	// does not synchronize (ddp's NoSync) accumulates its gradients and
	// applies nothing.
	Backward(loss *autograd.Variable) error
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
// every world size and under every bucket layout. Optimizer is
// identical on every rank; Residuals is per-rank, each rank's own
// quantization error. A State that crosses ranks — through
// elastic.SyncState or a checkpoint — carries its source's residuals,
// and every rank that adopts it adopts those.
type State struct {
	// Optimizer is the momentum state, in optim.SGD.FlatState's layout.
	Optimizer []float32
	// Residuals is the wire codec's error-feedback residuals (empty
	// without one).
	Residuals []float32
}

// Fields points at each of the state's vectors in declaration order,
// so code that moves a State vector by vector (elastic.SyncState)
// carries a field added here with no edit of its own, as a
// checkpoint, which encodes the struct whole, does.
func (s *State) Fields() []*[]float32 {
	v := reflect.ValueOf(s).Elem()
	out := make([]*[]float32, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Addr().Interface().(*[]float32)
	}
	return out
}
