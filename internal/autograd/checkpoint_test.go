package autograd

import (
	"math/rand"
	"repro/internal/testutil"
	"testing"

	"repro/internal/tensor"
)

func TestCheckpointGradsMatchPlainExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w1 := tensor.RandN(rng, 1, 4, 4)
	w2 := tensor.RandN(rng, 1, 4, 3)
	xv := tensor.RandN(rng, 1, 2, 4)

	run := func(checkpointed bool) (gx, g1, g2 *tensor.Tensor) {
		p1 := NewLeaf(w1.Clone(), true)
		p2 := NewLeaf(w2.Clone(), true)
		x := NewLeaf(xv.Clone(), true)
		segment := func(in *Variable) *Variable {
			return MatMul(Tanh(MatMul(in, p1)), p2)
		}
		var out *Variable
		if checkpointed {
			out = Checkpoint(segment, x)
		} else {
			out = segment(x)
		}
		Backward(Sum(out), nil)
		return x.Grad, p1.Grad, p2.Grad
	}

	gx1, g11, g21 := run(false)
	gx2, g12, g22 := run(true)
	if !testutil.AllClose(gx1, gx2, 1e-6, 1e-7) {
		t.Fatal("input grads differ under checkpointing")
	}
	if !testutil.AllClose(g11, g12, 1e-6, 1e-7) || !testutil.AllClose(g21, g22, 1e-6, 1e-7) {
		t.Fatal("parameter grads differ under checkpointing")
	}
}

func TestCheckpointRecomputesExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewLeaf(tensor.RandN(rng, 1, 3, 3), true)
	x := NewLeaf(tensor.RandN(rng, 1, 2, 3), true)
	calls := 0
	var sawDetachedInput bool
	out := Checkpoint(func(in *Variable) *Variable {
		calls++
		if calls == 1 {
			// The forward execution receives a detached input; only the
			// backward re-execution sees a grad-requiring leaf.
			sawDetachedInput = !in.requiresGrad
		}
		return MatMul(in, p)
	}, x)
	if calls != 1 {
		t.Fatalf("forward calls = %d", calls)
	}
	if !sawDetachedInput {
		t.Fatal("forward execution must receive a detached input")
	}
	// The caller-visible variable hangs off a single checkpoint node,
	// not fn's internal graph: its only graph input is x itself.
	if out.node == nil {
		t.Fatal("checkpoint output must participate in the outer graph")
	}
	Backward(Sum(out), nil)
	if calls != 2 {
		t.Fatalf("fn must re-execute exactly once in backward, calls = %d", calls)
	}
	if p.Grad == nil || x.Grad == nil {
		t.Fatal("grads missing after checkpointed backward")
	}
}

func TestCheckpointFiresParameterHooks(t *testing.T) {
	// DDP's reducer depends on post-accumulate hooks firing for
	// parameters used inside checkpointed segments.
	rng := rand.New(rand.NewSource(3))
	p := NewLeaf(tensor.RandN(rng, 1, 3, 3), true)
	fired := 0
	p.RegisterPostAccumulateHook(func(*Variable) { fired++ })
	x := Constant(tensor.RandN(rng, 1, 2, 3))
	out := Checkpoint(func(in *Variable) *Variable { return MatMul(in, p) }, NewLeaf(x.Value, true))
	Backward(Sum(out), nil)
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
}

func TestCheckpointIgnoredInputGetsZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := NewLeaf(tensor.RandN(rng, 1, 2, 2), true)
	out := Checkpoint(func(in *Variable) *Variable {
		return Constant(tensor.Ones(2, 2))
	}, x)
	Backward(Sum(out), nil)
	for _, v := range x.Grad.Data() {
		if v != 0 {
			t.Fatal("ignored input must get zero gradient")
		}
	}
}

func TestNestedCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewLeaf(tensor.RandN(rng, 1, 3, 3), true)
	x := NewLeaf(tensor.RandN(rng, 1, 2, 3), true)
	inner := func(in *Variable) *Variable { return Tanh(MatMul(in, p)) }
	outer := func(in *Variable) *Variable {
		return Checkpoint(inner, Relu(in))
	}
	out := Checkpoint(outer, x)
	Backward(Sum(out), nil)
	if p.Grad == nil || x.Grad == nil {
		t.Fatal("nested checkpoint lost gradients")
	}
	// Compare against plain execution.
	p2 := NewLeaf(p.Value.Clone(), true)
	x2 := NewLeaf(x.Value.Clone(), true)
	out2 := Tanh(MatMul(Relu(x2), p2))
	Backward(Sum(out2), nil)
	if !testutil.AllClose(p.Grad, p2.Grad, 1e-6, 1e-7) || !testutil.AllClose(x.Grad, x2.Grad, 1e-6, 1e-7) {
		t.Fatal("nested checkpoint grads differ from plain execution")
	}
}
