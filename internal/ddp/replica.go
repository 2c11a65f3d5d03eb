package ddp

import (
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
)

// Replica is DDP together with the optimizer that consumes its averaged
// gradients — the replicated implementation of replica.Replica. DDP on
// its own stops at "every .Grad holds the average" (the paper's API
// leaves optimizer.step() to the caller); the seam's training step ends
// with the update applied, so the pair is the unit. Every rank holds
// all parameters and all optimizer state, which makes Materialize a
// no-op, state capture local, and any survivor a valid source for
// re-seeding a reconfigured world.
type Replica struct {
	*DDP
	// Opt must manage exactly the wrapped model's parameters.
	Opt optim.Optimizer
}

// NewReplica wraps module with New and pairs it with opt.
func NewReplica(module nn.Module, pg comm.ProcessGroup, opts Options, opt optim.Optimizer) (*Replica, error) {
	d, err := New(module, pg, opts)
	if err != nil {
		return nil, err
	}
	return &Replica{DDP: d, Opt: opt}, nil
}

// Step applies the optimizer update to the averaged gradients and
// clears them.
func (r *Replica) Step() {
	r.Opt.Step()
	r.Opt.ZeroGrad()
}

// Materialize is a no-op: parameters are replicated.
func (r *Replica) Materialize() error { return nil }

// Rebind is SetProcessGroup: replicated state does not depend on the
// world, so only the group and the reducer's schedule change.
func (r *Replica) Rebind(pg comm.ProcessGroup) error { return r.SetProcessGroup(pg) }

// CaptureState returns the optimizer's flattened state (when it
// implements optim.StateFlattener) and the error-feedback residuals.
// Purely local, never fails.
func (r *Replica) CaptureState() (replica.State, error) {
	st := replica.State{Residuals: r.ResidualState()}
	if sf, ok := r.Opt.(optim.StateFlattener); ok {
		st.Optimizer = sf.FlatState()
	}
	return st, nil
}

// InstallState adopts another replica's captured state.
func (r *Replica) InstallState(st replica.State) error {
	if sf, ok := r.Opt.(optim.StateFlattener); ok && len(st.Optimizer) > 0 {
		if err := sf.SetFlatState(st.Optimizer); err != nil {
			return err
		}
	}
	if len(st.Residuals) > 0 {
		return r.SetResidualState(st.Residuals)
	}
	return nil
}

// HoldsFullState is true: that is what replicated means.
func (r *Replica) HoldsFullState() bool { return true }

var _ replica.Replica = (*Replica)(nil)
