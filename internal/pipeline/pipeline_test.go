package pipeline

import (
	"math"
	"math/rand"
	"repro/internal/testutil"
	"testing"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildStages returns a two-stage partition and an identically-seeded
// monolithic model for equivalence checks.
func buildStages(seed int64) (stage0, stage1, monolithic nn.Module) {
	rng := rand.New(rand.NewSource(seed))
	s0 := nn.NewSequential(nn.NewLinear(rng, "fc1", 6, 10), nn.Tanh{})
	s1 := nn.NewSequential(nn.NewLinear(rng, "fc2", 10, 3))

	rng2 := rand.New(rand.NewSource(seed))
	mono := nn.NewSequential(
		nn.NewLinear(rng2, "fc1", 6, 10), nn.Tanh{},
		nn.NewLinear(rng2, "fc2", 10, 3),
	)
	return s0, s1, mono
}

func mseLoss(out *autograd.Variable, target *tensor.Tensor) *autograd.Variable {
	return autograd.MSELoss(out, autograd.Constant(target))
}

func TestPipelineValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty pipeline must error")
	}
	s0, s1, _ := buildStages(1)
	p, err := New(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stages) != 2 {
		t.Fatalf("stages = %d", len(p.stages))
	}
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandN(rng, 1, 8, 6)
	y := tensor.RandN(rng, 1, 8, 3)
	if _, err := p.TrainBatch(x, y, 3, mseLoss); err == nil {
		t.Fatal("non-divisible micro count must error")
	}
	if _, err := p.TrainBatch(x, tensor.RandN(rng, 1, 4, 3), 2, mseLoss); err == nil {
		t.Fatal("mismatched target rows must error")
	}
}

// TestPipelineEquivalentToFullBatch is GPipe's core guarantee: gradient
// accumulation over micro-batches equals full-batch training.
func TestPipelineEquivalentToFullBatch(t *testing.T) {
	for _, micro := range []int{1, 2, 4, 8} {
		s0, s1, mono := buildStages(7)
		p, err := New(s0, s1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		x := tensor.RandN(rng, 1, 8, 6)
		y := tensor.RandN(rng, 1, 8, 3)

		loss, err := p.TrainBatch(x, y, micro, mseLoss)
		if err != nil {
			t.Fatal(err)
		}

		out := mono.Forward(autograd.Constant(x))
		refLoss := autograd.MSELoss(out, autograd.Constant(y))
		autograd.Backward(refLoss, nil)

		if math.Abs(float64(loss-refLoss.Value.Item())) > 1e-5 {
			t.Fatalf("micro=%d: pipeline loss %v != full-batch %v", micro, loss, refLoss.Value.Item())
		}
		pp := p.Parameters()
		mp := mono.Parameters()
		if len(pp) != len(mp) {
			t.Fatalf("parameter count %d vs %d", len(pp), len(mp))
		}
		for i := range pp {
			if pp[i].Grad == nil {
				t.Fatalf("micro=%d: stage param %d missing grad", micro, i)
			}
			if !testutil.AllClose(pp[i].Grad, mp[i].Grad, 1e-4, 1e-6) {
				t.Fatalf("micro=%d: param %d grad differs from full batch (max diff %v)",
					micro, i, pp[i].Grad.MaxAbsDiff(mp[i].Grad))
			}
		}
	}
}

func TestPipelineTrainsToConvergence(t *testing.T) {
	s0, s1, _ := buildStages(11)
	p, err := New(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandN(rng, 1, 16, 6)
	y := tensor.RandN(rng, 1, 16, 3)
	var first, last float32
	for i := 0; i < 60; i++ {
		p.ZeroGrad()
		loss, err := p.TrainBatch(x, y, 4, mseLoss)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
		for _, param := range p.Parameters() {
			tensor.AxpyInPlace(param.Value, -0.1, param.Grad)
		}
	}
	if last >= first/2 {
		t.Fatalf("pipeline training did not converge: %v -> %v", first, last)
	}
}

func TestPipelineThreeStages(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p, err := New(
		nn.NewSequential(nn.NewLinear(rng, "a", 4, 8), nn.ReLU{}),
		nn.NewSequential(nn.NewLinear(rng, "b", 8, 8), nn.Tanh{}),
		nn.NewSequential(nn.NewLinear(rng, "c", 8, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(rng, 1, 6, 4)
	y := tensor.RandN(rng, 1, 6, 2)
	loss, err := p.TrainBatch(x, y, 3, mseLoss)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	for _, param := range p.Parameters() {
		if param.Grad == nil {
			t.Fatal("three-stage pipeline lost a gradient")
		}
	}
}

func TestPipelineGradAccumulationAcrossBatches(t *testing.T) {
	// Without ZeroGrad, two TrainBatch calls must accumulate gradients
	// (the same .grad += semantics DDP's no_sync relies on).
	s0, s1, _ := buildStages(14)
	p, err := New(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	x := tensor.RandN(rng, 1, 4, 6)
	y := tensor.RandN(rng, 1, 4, 3)
	if _, err := p.TrainBatch(x, y, 2, mseLoss); err != nil {
		t.Fatal(err)
	}
	after1 := p.Parameters()[0].Grad.Clone()
	if _, err := p.TrainBatch(x, y, 2, mseLoss); err != nil {
		t.Fatal(err)
	}
	want := tensor.MulScalar(after1, 2)
	if !testutil.AllClose(p.Parameters()[0].Grad, want, 1e-5, 1e-7) {
		t.Fatal("gradients did not accumulate across TrainBatch calls")
	}
}
