// Package optim implements parameter optimizers (SGD with momentum,
// Adam) operating on nn Parameters.
//
// SGD's momentum state is central to the paper's Section 2.2 argument:
// gradient synchronization keeps optimizer state identical across
// replicas, while parameter averaging lets momentum buffers diverge.
// The optimizers here skip parameters whose Grad is nil, matching the
// "optimizer uses gradient absence information" behaviour discussed in
// Section 3.2.3.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// SGD implements stochastic gradient descent with optional momentum and
// weight decay, matching torch.optim.SGD update rules.
type SGD struct {
	Params      []*nn.Parameter
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*nn.Parameter]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over the given parameters.
func NewSGD(params []*nn.Parameter, lr float32) *SGD {
	return &SGD{Params: params, LR: lr, velocity: make(map[*nn.Parameter]*tensor.Tensor)}
}

// Step applies v = momentum*v + grad (+wd*param); param -= lr*v, one
// pass over each parameter (ShardedMomentumStep) that reads Grad where
// it stands and writes only the value and the velocity.
func (s *SGD) Step() {
	for _, p := range s.Params {
		if p.Grad == nil {
			continue
		}
		var velocity []float32
		if s.Momentum != 0 {
			velocity = ensure(s.velocity, p).Data()
		}
		ShardedMomentumStep(p.Value.Data(), p.Grad.Data(), velocity, s.LR, s.Momentum, s.WeightDecay)
	}
}

// ZeroGrad clears gradients of all managed parameters.
func (s *SGD) ZeroGrad() {
	for _, p := range s.Params {
		p.ZeroGrad()
	}
}

// VelocityOf exposes the momentum buffer for a parameter (nil if none),
// used by tests demonstrating optimizer-state divergence under
// parameter averaging.
func (s *SGD) VelocityOf(p *nn.Parameter) *tensor.Tensor { return s.velocity[p] }

// flatLen is the combined element count of a parameter list.
func flatLen(params []*nn.Parameter) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// ensure returns the state tensor for p in m, materializing zeros on
// first use. A zero velocity is update-equivalent to an absent one, so
// materialization never changes training trajectories.
func ensure(m map[*nn.Parameter]*tensor.Tensor, p *nn.Parameter) *tensor.Tensor {
	t := m[p]
	if t == nil {
		t = tensor.New(p.Value.Shape()...)
		m[p] = t
	}
	return t
}

// FlatState returns [velocity...] in parameter order, zeros for a
// parameter that has taken no step: the layout of the momentum a
// replica captures (internal/replica's State.Optimizer).
func (s *SGD) FlatState() []float32 {
	flat := make([]float32, 0, flatLen(s.Params))
	for _, p := range s.Params {
		flat = append(flat, ensure(s.velocity, p).Data()...)
	}
	return flat
}

// SetFlatState restores velocities exported by FlatState.
func (s *SGD) SetFlatState(flat []float32) error {
	if len(flat) != flatLen(s.Params) {
		return fmt.Errorf("optim: SGD state has %d elements, expected %d", len(flat), flatLen(s.Params))
	}
	off := 0
	for _, p := range s.Params {
		v := ensure(s.velocity, p)
		off += copy(v.Data(), flat[off:off+p.Value.Size()])
	}
	return nil
}

// Adam implements the Adam optimizer with PyTorch default
// hyperparameters.
type Adam struct {
	Params []*nn.Parameter
	LR     float32
	Beta1  float32
	Beta2  float32
	Eps    float32

	step int
	m, v map[*nn.Parameter]*tensor.Tensor
}

// NewAdam constructs an Adam optimizer with defaults beta1=0.9,
// beta2=0.999, eps=1e-8.
func NewAdam(params []*nn.Parameter, lr float32) *Adam {
	return &Adam{
		Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Parameter]*tensor.Tensor),
		v: make(map[*nn.Parameter]*tensor.Tensor),
	}
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step() {
	a.step++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.step)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.step)))
	for _, p := range a.Params {
		if p.Grad == nil {
			continue
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.Value.Shape()...)
			v = tensor.New(p.Value.Shape()...)
			a.m[p] = m
			a.v[p] = v
		}
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		for i := range gd {
			md[i] = float32(a.Beta1*md[i]) + float32((1-a.Beta1)*gd[i])
			vd[i] = float32(a.Beta2*vd[i]) + float32((1-a.Beta2)*gd[i]*gd[i])
			mhat := md[i] / c1
			vhat := vd[i] / c2
			pd[i] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + a.Eps)
		}
	}
}

// ZeroGrad clears gradients of all managed parameters.
func (a *Adam) ZeroGrad() {
	for _, p := range a.Params {
		p.ZeroGrad()
	}
}
