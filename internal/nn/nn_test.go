package nn

import (
	"math"
	"math/rand"
	"repro/internal/testutil"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func TestLinearForwardKnownValues(t *testing.T) {
	l := &Linear{
		W: NewParameter("w", tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)),
		B: NewParameter("b", tensor.FromSlice([]float32{10, 20}, 2)),
	}
	x := autograd.Constant(tensor.FromSlice([]float32{1, 1}, 1, 2))
	out := l.Forward(x)
	// [1,1]·[[1,2],[3,4]] + [10,20] = [4+10, 6+20]
	want := tensor.FromSlice([]float32{14, 26}, 1, 2)
	if !out.Value.Equal(want) {
		t.Fatalf("Linear forward = %v, want %v", out.Value, want)
	}
}

func TestLinearParameterOrder(t *testing.T) {
	l := NewLinear(rand.New(rand.NewSource(1)), "fc", 3, 2)
	ps := l.Parameters()
	if len(ps) != 2 || ps[0].Name != "fc.weight" || ps[1].Name != "fc.bias" {
		t.Fatalf("parameter order = %v", []string{ps[0].Name, ps[1].Name})
	}
}

func TestLinearGradientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, "fc", 4, 3)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 4))
	loss := autograd.Sum(l.Forward(x))
	autograd.Backward(loss, nil)
	if l.W.Grad == nil || l.B.Grad == nil {
		t.Fatal("gradients missing")
	}
	// d(sum)/db = batch size for every bias element.
	for _, v := range l.B.Grad.Data() {
		if v != 2 {
			t.Fatalf("bias grad = %v, want 2", v)
		}
	}
}

func TestConv2dForwardShapeAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2d(rng, "conv", 2, 4, 3, 1, 1)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 2, 5, 5))
	out := c.Forward(x)
	if out.Value.Dims(1) != 4 || out.Value.Dims(2) != 5 {
		t.Fatalf("conv output shape %v", out.Value.Shape())
	}
	autograd.Backward(autograd.Sum(out), nil)
	if c.W.Grad == nil || c.B.Grad == nil {
		t.Fatal("conv grads missing")
	}
	// Bias grad for sum-loss is n*oh*ow per channel.
	if got := c.B.Grad.At(0); got != 2*5*5 {
		t.Fatalf("conv bias grad = %v, want 50", got)
	}
}

func TestSequentialOrderAndForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewSequential(
		NewLinear(rng, "fc1", 4, 8),
		ReLU{},
		NewLinear(rng, "fc2", 8, 2),
	)
	ps := m.Parameters()
	want := []string{"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Fatalf("parameter %d = %s, want %s", i, p.Name, want[i])
		}
	}
	x := autograd.Constant(tensor.RandN(rng, 1, 3, 4))
	out := m.Forward(x)
	if out.Value.Dims(0) != 3 || out.Value.Dims(1) != 2 {
		t.Fatalf("output shape %v", out.Value.Shape())
	}
}

func TestZeroGradAndNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewLinear(rng, "fc", 3, 2)
	x := autograd.Constant(tensor.RandN(rng, 1, 1, 3))
	autograd.Backward(autograd.Sum(m.Forward(x)), nil)
	if m.W.Grad == nil {
		t.Fatal("no grad")
	}
	ZeroGrad(m)
	if m.W.Grad != nil || m.B.Grad != nil {
		t.Fatal("ZeroGrad failed")
	}
	if NumParams(m) != 3*2+2 {
		t.Fatalf("NumParams = %d", NumParams(m))
	}
}

func TestCopyParameters(t *testing.T) {
	a := NewLinear(rand.New(rand.NewSource(6)), "fc", 3, 3)
	b := NewLinear(rand.New(rand.NewSource(7)), "fc", 3, 3)
	if a.W.Value.Equal(b.W.Value) {
		t.Fatal("different seeds should differ")
	}
	if err := CopyParameters(b, a); err != nil {
		t.Fatal(err)
	}
	if !a.W.Value.Equal(b.W.Value) || !a.B.Value.Equal(b.B.Value) {
		t.Fatal("CopyParameters did not copy")
	}
}

func TestBatchNormTrainingNormalizes(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	x := autograd.Constant(tensor.FromSlice([]float32{1, 10, 3, 30, 5, 50, 7, 70}, 4, 2))
	out := bn.Forward(x)
	// Each output channel should have ~zero mean, ~unit variance.
	for ch := 0; ch < 2; ch++ {
		var s, sq float64
		for b := 0; b < 4; b++ {
			v := float64(out.Value.At(b, ch))
			s += v
			sq += v * v
		}
		if math.Abs(s/4) > 1e-4 || math.Abs(sq/4-1) > 1e-2 {
			t.Fatalf("channel %d mean %v var %v", ch, s/4, sq/4)
		}
	}
	// Running stats moved toward batch stats.
	if bn.RunningMean.Data.At(0) == 0 {
		t.Fatal("running mean not updated")
	}
	if bn.NumBatchesTracked.Data.At(0) != 1 {
		t.Fatal("num_batches_tracked not updated")
	}
}

func TestBatchNormEvalFrozen(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	bn.SetTraining(false)
	before := bn.RunningMean.Data.Clone()
	x := autograd.Constant(tensor.FromSlice([]float32{5, 5, 5, 5}, 2, 2))
	bn.Forward(x)
	if !bn.RunningMean.Data.Equal(before) {
		t.Fatal("eval mode must not update running stats")
	}
}

func TestBatchNormBuffersListed(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	if len(bn.Buffers()) != 3 {
		t.Fatalf("Buffers = %d, want 3", len(bn.Buffers()))
	}
}

func TestLayerNormOutput(t *testing.T) {
	ln := NewLayerNorm("ln", 4)
	x := autograd.Constant(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4))
	out := ln.Forward(x)
	var s float32
	for _, v := range out.Value.Data() {
		s += v
	}
	if math.Abs(float64(s)) > 1e-4 {
		t.Fatalf("layernorm row mean = %v", s/4)
	}
}

func TestResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	body := NewLinear(rng, "fc", 3, 3)
	r := NewResidual(body)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3))
	out := r.Forward(x)
	want := tensor.Add(x.Value, body.Forward(x).Value)
	if !testutil.AllClose(out.Value, want, 1e-6, 1e-6) {
		t.Fatal("residual mismatch")
	}
	if len(r.Parameters()) != 2 {
		t.Fatal("residual must expose body parameters")
	}
}

func TestLayerDropDeterministicAcrossReplicas(t *testing.T) {
	// Two "ranks" constructing LayerDrop with the same seed must skip the
	// same layers in the same iterations (Section 6.2.2 coordination).
	rngA, rngB := rand.New(rand.NewSource(10)), rand.New(rand.NewSource(11))
	a := NewLayerDrop(99, 0.5, NewLinear(rngA, "fc", 2, 2))
	b := NewLayerDrop(99, 0.5, NewLinear(rngB, "fc", 2, 2))
	x := autograd.Constant(tensor.Ones(1, 2))
	for i := 0; i < 20; i++ {
		a.Forward(x)
		b.Forward(x)
		if a.Skipped != b.Skipped {
			t.Fatalf("iteration %d: replicas disagree on skip", i)
		}
	}
}

func TestLayerDropEvalNeverSkips(t *testing.T) {
	l := NewLayerDrop(1, 1.0, NewLinear(rand.New(rand.NewSource(12)), "fc", 2, 2))
	l.SetTraining(false)
	l.Forward(autograd.Constant(tensor.Ones(1, 2)))
	if l.Skipped {
		t.Fatal("eval LayerDrop must not skip")
	}
}

func TestFlattenAndPools(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 3, 4, 4))
	if got := (Flatten{}).Forward(x); got.Value.Dims(1) != 48 {
		t.Fatalf("flatten shape %v", got.Value.Shape())
	}
	if got := (MaxPool{}).Forward(x); got.Value.Dims(2) != 2 {
		t.Fatalf("maxpool shape %v", got.Value.Shape())
	}
}

func TestCheckpointedModuleMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	body := NewSequential(NewLinear(rng, "fc1", 4, 8), Tanh{}, NewLinear(rng, "fc2", 8, 2))
	plainRng := rand.New(rand.NewSource(20))
	plain := NewSequential(NewLinear(plainRng, "fc1", 4, 8), Tanh{}, NewLinear(plainRng, "fc2", 8, 2))

	ck := NewCheckpointed(body)
	if len(ck.Parameters()) != 4 {
		t.Fatal("checkpointed wrapper must expose body parameters")
	}
	x := autograd.Constant(tensor.RandN(rand.New(rand.NewSource(21)), 1, 3, 4))

	autograd.Backward(autograd.Sum(ck.Forward(x)), nil)
	autograd.Backward(autograd.Sum(plain.Forward(x)), nil)
	for i, p := range ck.Parameters() {
		if !testutil.AllClose(p.Grad, plain.Parameters()[i].Grad, 1e-6, 1e-7) {
			t.Fatalf("checkpointed grad %d differs from plain", i)
		}
	}
}

func TestCheckpointedWorksInsideSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := NewSequential(
		NewLinear(rng, "in", 4, 8),
		NewCheckpointed(NewSequential(NewLinear(rng, "mid", 8, 8), ReLU{})),
		NewLinear(rng, "out", 8, 2),
	)
	x := autograd.Constant(tensor.RandN(rng, 1, 2, 4))
	autograd.Backward(autograd.Sum(m.Forward(x)), nil)
	for _, p := range m.Parameters() {
		if p.Grad == nil {
			t.Fatalf("parameter %s missing grad through checkpoint", p.Name)
		}
	}
}

func TestSetTrainingRecurses(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bn := NewBatchNorm("bn", 2)
	m := NewSequential(NewLinear(rng, "fc", 2, 2), bn)
	m.SetTraining(false)
	before := bn.RunningMean.Data.Clone()
	m.Forward(autograd.Constant(tensor.Ones(3, 2)))
	if !bn.RunningMean.Data.Equal(before) {
		t.Fatal("SetTraining(false) did not reach BatchNorm")
	}
}
