package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func scalarParam(v float32) *nn.Parameter {
	return nn.NewParameter("p", tensor.FromSlice([]float32{v}, 1))
}

func setGrad(p *nn.Parameter, g float32) {
	p.Grad = tensor.FromSlice([]float32{g}, 1)
}

func TestSGDPlainStep(t *testing.T) {
	p := scalarParam(1)
	opt := NewSGD([]*nn.Parameter{p}, 0.1)
	setGrad(p, 2)
	opt.Step()
	if got := p.Value.At(0); math.Abs(float64(got-0.8)) > 1e-6 {
		t.Fatalf("param = %v, want 0.8", got)
	}
}

func TestSGDMomentumMatchesTorchSemantics(t *testing.T) {
	// torch.optim.SGD: v = mu*v + g; p -= lr*v with v initialized to g.
	p := scalarParam(0)
	opt := NewSGD([]*nn.Parameter{p}, 1)
	opt.Momentum = 0.9
	setGrad(p, 1)
	opt.Step() // v=1, p=-1
	setGrad(p, 1)
	opt.Step() // v=1.9, p=-2.9
	if got := p.Value.At(0); math.Abs(float64(got+2.9)) > 1e-5 {
		t.Fatalf("param = %v, want -2.9", got)
	}
	if v := opt.velocity[p]; v == nil || math.Abs(float64(v.At(0)-1.9)) > 1e-5 {
		t.Fatalf("velocity = %v, want 1.9", v)
	}
}

func TestSGDSkipsNilGradients(t *testing.T) {
	// Section 3.2.3: an optimizer that skips absent gradients must not
	// decay momentum or move the parameter.
	p := scalarParam(1)
	opt := NewSGD([]*nn.Parameter{p}, 0.1)
	opt.Momentum = 0.9
	setGrad(p, 1)
	opt.Step()
	vBefore := opt.velocity[p].At(0)
	p.ZeroGrad()
	opt.Step() // nil grad: untouched
	if opt.velocity[p].At(0) != vBefore {
		t.Fatal("momentum must not change for absent gradient")
	}
}

func TestZeroGrad(t *testing.T) {
	p := scalarParam(1)
	opt := NewSGD([]*nn.Parameter{p}, 0.1)
	setGrad(p, 1)
	opt.ZeroGrad()
	if p.Grad != nil {
		t.Fatal("ZeroGrad failed")
	}
}

func TestAdamDirectionAndMagnitude(t *testing.T) {
	// First Adam step moves by ~lr regardless of gradient scale.
	p := scalarParam(0)
	opt := NewAdam([]*nn.Parameter{p}, 0.01)
	setGrad(p, 123)
	opt.Step()
	if got := p.Value.At(0); math.Abs(float64(got+0.01)) > 1e-4 {
		t.Fatalf("first Adam step = %v, want ~-0.01", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with SGD+momentum; must converge to w=3.
	rng := rand.New(rand.NewSource(1))
	_ = rng
	w := nn.NewParameter("w", tensor.FromSlice([]float32{0}, 1))
	opt := NewSGD([]*nn.Parameter{w}, 0.05)
	opt.Momentum = 0.9
	target := autograd.Constant(tensor.FromSlice([]float32{3}, 1))
	for i := 0; i < 200; i++ {
		opt.ZeroGrad()
		loss := autograd.MSELoss(w.Variable, target)
		autograd.Backward(loss, nil)
		opt.Step()
	}
	if got := w.Value.At(0); math.Abs(float64(got-3)) > 1e-2 {
		t.Fatalf("converged to %v, want 3", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := nn.NewParameter("w", tensor.FromSlice([]float32{0}, 1))
	opt := NewAdam([]*nn.Parameter{w}, 0.1)
	target := autograd.Constant(tensor.FromSlice([]float32{-2}, 1))
	for i := 0; i < 300; i++ {
		opt.ZeroGrad()
		loss := autograd.MSELoss(w.Variable, target)
		autograd.Backward(loss, nil)
		opt.Step()
	}
	if got := w.Value.At(0); math.Abs(float64(got+2)) > 5e-2 {
		t.Fatalf("converged to %v, want -2", got)
	}
}

// threePassSGDStep is SGD.Step as it was before it became one pass
// (ShardedMomentumStep): scale and add into the velocity, axpy into the
// value — separate walks over memory per parameter. Kept as the oracle
// for the one-pass loop.
func threePassSGDStep(params []*nn.Parameter, velocity map[*nn.Parameter]*tensor.Tensor, lr, momentum float32) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad
		update := g
		if momentum != 0 {
			v := velocity[p]
			if v == nil {
				v = g.Clone()
				velocity[p] = v
			} else {
				tensor.ScaleFloats(v.Data(), momentum)
				tensor.AddInPlace(v, g)
			}
			update = v
		}
		pv := p.Value.Data()
		for i, u := range update.Data() {
			pv[i] += float32(-lr * u)
		}
	}
}

// TestSGDStepIsBitwiseTheThreePassUpdate: over several steps, for every
// momentum, with one parameter that
// never gets a gradient, SGD.Step leaves bitwise the values and
// velocities the three-pass update does, and does not write Grad. The
// parameter sizes sit on both sides of eight, so the vector body of the
// momentum leaf, its tail, and a parameter that is all tail are each held
// to the reference.
func TestSGDStepIsBitwiseTheThreePassUpdate(t *testing.T) {
	for _, momentum := range []float32{0, 0.9} {
		rng := rand.New(rand.NewSource(9))
		shapes := [][]int{{1}, {7}, {8}, {9}, {13, 79}, {3, 3}} // 13·79 = 1027
		var got, want []*nn.Parameter
		for _, shape := range shapes {
			v := tensor.RandN(rng, 1, shape...)
			got = append(got, nn.NewParameter("p", v))
			want = append(want, nn.NewParameter("p", v.Clone()))
		}
		opt := NewSGD(got, 0.05)
		opt.Momentum = momentum
		velocity := make(map[*nn.Parameter]*tensor.Tensor)
		for step := 0; step < 4; step++ {
			for i := range got[:len(got)-1] { // the last parameter's Grad stays nil
				g := tensor.RandN(rng, 1, shapes[i]...)
				got[i].Grad, want[i].Grad = g, g.Clone()
			}
			opt.Step()
			threePassSGDStep(want, velocity, 0.05, momentum)
			for i := range got {
				if !testutil.SameBits(got[i].Value, want[i].Value) {
					t.Fatalf("momentum %v step %d: parameter %d differs from the three-pass update", momentum, step, i)
				}
				if v := velocity[want[i]]; v != nil && !testutil.SameBits(opt.velocity[got[i]], v) {
					t.Fatalf("momentum %v step %d: velocity %d differs from the three-pass update", momentum, step, i)
				}
				if got[i].Grad != nil && !testutil.SameBits(got[i].Grad, want[i].Grad) {
					t.Fatalf("momentum %v step %d: Step wrote parameter %d's Grad", momentum, step, i)
				}
			}
		}
		if opt.velocity[got[len(got)-1]] != nil {
			t.Fatalf("momentum %v: a parameter without gradient got a velocity", momentum)
		}
	}
}
