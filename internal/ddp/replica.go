package ddp

import (
	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
)

// Replica is DDP together with the momentum SGD that consumes its
// averaged gradients — the replicated implementation of
// replica.Replica. DDP on its own stops at "every .Grad holds the
// average"; the seam's step ends with the update applied, so a
// synchronized Backward applies it, as fsdp's does. Every rank holds all
// parameters and optimizer state, which makes Materialize a no-op, state
// capture local, and any survivor a source for re-seeding a world.
type Replica struct {
	*DDP
	opt *optim.SGD
}

// NewReplica wraps module with New; a synchronized Backward then applies
// momentum SGD with learning rate lr.
func NewReplica(module nn.Module, pg comm.ProcessGroup, opts Options, lr, momentum float32) (*Replica, error) {
	d, err := New(module, pg, opts)
	if err != nil {
		return nil, err
	}
	opt := optim.NewSGD(module.Parameters(), lr)
	opt.Momentum = momentum
	return &Replica{DDP: d, opt: opt}, nil
}

// Backward is DDP's Backward followed, when the iteration synchronized,
// by the SGD step and cleared gradients. The step skips a parameter
// whose Grad is nil, so a globally unused parameter keeps its value and
// velocity (Section 3.2.3); a no_sync iteration's gradients stay
// accumulated.
func (r *Replica) Backward(loss *autograd.Variable) error {
	if err := r.DDP.Backward(loss); err != nil || !r.syncThisBackward {
		return err
	}
	r.opt.Step()
	r.opt.ZeroGrad()
	return nil
}

// Materialize is a no-op: parameters are replicated.
func (r *Replica) Materialize() error { return nil }

// Rebind is SetProcessGroup: replicated state does not depend on the
// world, so only the group and the reducer's schedule change.
func (r *Replica) Rebind(pg comm.ProcessGroup) error { return r.SetProcessGroup(pg) }

// CaptureState returns the momentum state and the error-feedback
// residuals. Purely local, never fails.
func (r *Replica) CaptureState() (replica.State, error) {
	return replica.State{Optimizer: r.opt.FlatState(), Residuals: r.ResidualState()}, nil
}

// InstallState adopts another replica's captured state; an optimizer
// vector of the wrong length is refused.
func (r *Replica) InstallState(st replica.State) error {
	if len(st.Optimizer) > 0 {
		if err := r.opt.SetFlatState(st.Optimizer); err != nil {
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
