package autograd

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// numGrad computes a numerical gradient of f() with respect to element i
// of t by central differences.
func numGrad(t *tensor.Tensor, i int, f func() float32) float32 {
	const eps = 1e-3
	orig := t.Data()[i]
	t.Data()[i] = orig + eps
	up := f()
	t.Data()[i] = orig - eps
	down := f()
	t.Data()[i] = orig
	return (up - down) / (2 * eps)
}

// checkGrads verifies Backward's gradients against finite differences for
// each listed leaf, where forward rebuilds the graph and returns the
// scalar loss variable.
func checkGrads(t *testing.T, leaves []*Variable, forward func() *Variable, tol float64) {
	t.Helper()
	for _, leaf := range leaves {
		leaf.ZeroGrad()
	}
	loss := forward()
	Backward(loss, nil)
	for li, leaf := range leaves {
		if leaf.Grad == nil {
			t.Fatalf("leaf %d got no gradient", li)
		}
		for _, i := range sampleIndices(leaf.Value.Size()) {
			num := numGrad(leaf.Value, i, func() float32 { return forward().Value.Item() })
			got := leaf.Grad.Data()[i]
			if math.Abs(float64(num-got)) > tol*(1+math.Abs(float64(num))) {
				t.Errorf("leaf %d grad[%d] = %v, numerical %v", li, i, got, num)
			}
		}
	}
}

func sampleIndices(n int) []int {
	if n <= 4 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return []int{0, n / 3, n / 2, n - 1}
}

func randVar(rng *rand.Rand, shape ...int) *Variable {
	return NewLeaf(tensor.RandN(rng, 1, shape...), true)
}

func TestBackwardOnLeaf(t *testing.T) {
	v := NewLeaf(tensor.Scalar(2), true)
	Backward(v, nil)
	if v.Grad == nil || v.Grad.Item() != 1 {
		t.Fatalf("leaf grad = %v, want 1", v.Grad)
	}
}

func TestBackwardRequiresScalarForImplicitGrad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Backward(NewLeaf(tensor.New(3), true), nil)
}

func TestAddGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randVar(rng, 3), randVar(rng, 3)
	checkGrads(t, []*Variable{a, b}, func() *Variable { return Sum(Add(a, b)) }, 1e-2)
}

func TestSubMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randVar(rng, 4), randVar(rng, 4)
	checkGrads(t, []*Variable{a, b}, func() *Variable { return Sum(Mul(Sub(a, b), a)) }, 1e-2)
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randVar(rng, 3, 4), randVar(rng, 4, 2)
	checkGrads(t, []*Variable{a, b}, func() *Variable { return Sum(MatMul(a, b)) }, 1e-2)
}

func TestAddRowMulRowGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, row, scale := randVar(rng, 3, 4), randVar(rng, 4), randVar(rng, 4)
	checkGrads(t, []*Variable{m, row, scale}, func() *Variable {
		return Sum(MulRow(AddRow(m, row), scale))
	}, 1e-2)
}

func TestActivationGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, op := range map[string]func(*Variable) *Variable{
		"relu": Relu, "tanh": Tanh, "sigmoid": Sigmoid, "gelu": Gelu,
	} {
		a := NewLeaf(tensor.RandN(rng, 1, 6), true)
		// Shift away from relu's kink at 0 for stable finite differences.
		for i, v := range a.Value.Data() {
			if v > -0.05 && v < 0.05 {
				a.Value.Data()[i] = 0.1
			}
		}
		checkGrads(t, []*Variable{a}, func() *Variable { return Sum(op(a)) }, 2e-2)
		_ = name
	}
}

func TestMeanGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randVar(rng, 5)
	checkGrads(t, []*Variable{a}, func() *Variable { return Mean(Mul(a, a)) }, 1e-2)
}

func TestMulScalarGrad(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float32{1, 2}, 2), true)
	Backward(Sum(MulScalar(a, 3)), nil)
	if a.Grad.At(0) != 3 || a.Grad.At(1) != 3 {
		t.Fatalf("MulScalar grad = %v", a.Grad)
	}
}

func TestReshapeGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randVar(rng, 2, 3)
	checkGrads(t, []*Variable{a}, func() *Variable {
		return Sum(Mul(Reshape(a, 3, 2), Reshape(a, 3, 2)))
	}, 1e-2)
}

func TestConv2DGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randVar(rng, 1, 2, 4, 4)
	w := randVar(rng, 3, 2, 3, 3)
	checkGrads(t, []*Variable{in, w}, func() *Variable { return Sum(Conv2D(in, w, 1, 1)) }, 2e-2)
}

func TestPoolGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randVar(rng, 2, 3, 4, 4)
	checkGrads(t, []*Variable{in}, func() *Variable { return Sum(AvgPool2D(in)) }, 1e-2)
	in2 := randVar(rng, 1, 2, 4, 4)
	checkGrads(t, []*Variable{in2}, func() *Variable {
		return Sum(Mul(MaxPool2D(in2), MaxPool2D(in2)))
	}, 2e-2)
}

func TestEmbeddingGrad(t *testing.T) {
	w := NewLeaf(tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2), true)
	out := Embedding(w, []int{2, 0, 2})
	Backward(Sum(out), nil)
	// Row 2 gathered twice, row 0 once, row 1 never.
	want := tensor.FromSlice([]float32{1, 1, 0, 0, 2, 2}, 3, 2)
	if !w.Grad.Equal(want) {
		t.Fatalf("Embedding grad = %v, want %v", w.Grad, want)
	}
}

func TestDropoutGradRespectsMask(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float32{1, 2, 3, 4}, 4), true)
	keep := []bool{true, false, true, false}
	out := Dropout(a, keep, 0.5)
	if out.Value.At(0) != 2 || out.Value.At(1) != 0 {
		t.Fatalf("Dropout forward = %v", out.Value)
	}
	Backward(Sum(out), nil)
	if a.Grad.At(0) != 2 || a.Grad.At(1) != 0 || a.Grad.At(2) != 2 {
		t.Fatalf("Dropout grad = %v", a.Grad)
	}
}

func TestConcatGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := randVar(rng, 2, 3), randVar(rng, 2, 2)
	checkGrads(t, []*Variable{a, b}, func() *Variable { return Sum(Mul(Concat(a, b), Concat(a, b))) }, 2e-2)
}

func TestMSELossGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randVar(rng, 2, 3)
	target := Constant(tensor.RandN(rng, 1, 2, 3))
	checkGrads(t, []*Variable{p}, func() *Variable { return MSELoss(p, target) }, 1e-2)
}

func TestCrossEntropyGradAndValue(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := randVar(rng, 4, 5)
	targets := []int{0, 3, 2, 4}
	checkGrads(t, []*Variable{logits}, func() *Variable { return CrossEntropyLoss(logits, targets) }, 1e-2)

	// Uniform logits must give loss = ln(classes).
	u := NewLeaf(tensor.New(2, 8), true)
	loss := CrossEntropyLoss(u, []int{1, 5})
	if math.Abs(float64(loss.Value.Item())-math.Log(8)) > 1e-5 {
		t.Fatalf("uniform CE loss = %v, want ln 8", loss.Value.Item())
	}
}

func TestSoftmaxRowsGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randVar(rng, 2, 4)
	w := Constant(tensor.RandN(rng, 1, 2, 4))
	checkGrads(t, []*Variable{a}, func() *Variable { return Sum(Mul(SoftmaxRows(a), w)) }, 2e-2)
}

func TestBatchNormGradTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randVar(rng, 4, 3)
	gamma := NewLeaf(tensor.Ones(3), true)
	beta := NewLeaf(tensor.New(3), true)
	checkGrads(t, []*Variable{x, gamma, beta}, func() *Variable {
		out, _ := BatchNorm(x, gamma, beta, nil, nil, 1e-5, true)
		return Sum(Mul(out, out))
	}, 5e-2)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	x := NewLeaf(tensor.FromSlice([]float32{2, 4}, 1, 2), false)
	gamma := NewLeaf(tensor.Ones(2), true)
	beta := NewLeaf(tensor.New(2), true)
	out, stats := BatchNorm(x, gamma, beta, []float32{1, 1}, []float32{4, 4}, 0, false)
	if stats != nil {
		t.Fatal("eval mode must not return batch stats")
	}
	// (2-1)/2 = 0.5, (4-1)/2 = 1.5
	if math.Abs(float64(out.Value.At(0, 0)-0.5)) > 1e-5 || math.Abs(float64(out.Value.At(0, 1)-1.5)) > 1e-5 {
		t.Fatalf("eval batchnorm = %v", out.Value)
	}
}

func TestBatchNorm4DShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := randVar(rng, 2, 3, 2, 2)
	gamma := NewLeaf(tensor.Ones(3), true)
	beta := NewLeaf(tensor.New(3), true)
	out, stats := BatchNorm(x, gamma, beta, nil, nil, 1e-5, true)
	if !out.Value.SameShape(x.Value) {
		t.Fatalf("4D batchnorm shape = %v", out.Value.Shape())
	}
	if len(stats.Mean) != 3 || len(stats.Var) != 3 {
		t.Fatalf("stats lengths %d/%d", len(stats.Mean), len(stats.Var))
	}
	// Normalized output per channel must have ~zero mean.
	Backward(Sum(out), nil)
	if x.Grad == nil {
		t.Fatal("no grad through 4D batchnorm")
	}
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randVar(rng, 3, 5)
	gain := NewLeaf(tensor.Ones(5), true)
	bias := NewLeaf(tensor.New(5), true)
	checkGrads(t, []*Variable{x, gain, bias}, func() *Variable {
		return Sum(Mul(LayerNorm(x, gain, bias, 1e-5), LayerNorm(x, gain, bias, 1e-5)))
	}, 5e-2)
}

func TestSharedParameterAccumulatesOnce(t *testing.T) {
	// A parameter used twice in the graph must receive the sum of both
	// contributions, and its post-hook must fire exactly once per pass.
	w := NewLeaf(tensor.FromSlice([]float32{2}, 1), true)
	fires := 0
	w.RegisterPostAccumulateHook(func(v *Variable) { fires++ })
	// loss = w*w  => dw = 2w = 4
	loss := Sum(Mul(w, w))
	Backward(loss, nil)
	if fires != 1 {
		t.Fatalf("hook fired %d times, want 1", fires)
	}
	if w.Grad.At(0) != 4 {
		t.Fatalf("shared grad = %v, want 4", w.Grad.At(0))
	}
}

func TestGradAccumulatesAcrossBackwardPasses(t *testing.T) {
	// PyTorch semantics: .grad += on every backward until zeroed. This is
	// what makes no_sync gradient accumulation work.
	w := NewLeaf(tensor.FromSlice([]float32{1}, 1), true)
	for i := 0; i < 3; i++ {
		Backward(Sum(MulScalar(w, 2)), nil)
	}
	if w.Grad.At(0) != 6 {
		t.Fatalf("accumulated grad = %v, want 6", w.Grad.At(0))
	}
	w.ZeroGrad()
	if w.Grad != nil {
		t.Fatal("ZeroGrad must clear")
	}
}

func TestHookFiringOrderFollowsBackwardOrder(t *testing.T) {
	// In a chain y = w3*(w2*(w1*x)), gradients become ready in reverse
	// order w3, w2, w1 — the property DDP's reverse-order bucketing
	// assumes (Section 3.2.3).
	rng := rand.New(rand.NewSource(17))
	x := Constant(tensor.RandN(rng, 1, 2, 2))
	w1, w2, w3 := randVar(rng, 2, 2), randVar(rng, 2, 2), randVar(rng, 2, 2)
	var order []string
	for _, p := range []struct {
		v *Variable
		n string
	}{{w1, "w1"}, {w2, "w2"}, {w3, "w3"}} {
		name := p.n
		p.v.RegisterPostAccumulateHook(func(*Variable) { order = append(order, name) })
	}
	loss := Sum(MatMul(MatMul(MatMul(x, w1), w2), w3))
	Backward(loss, nil)
	if len(order) != 3 || order[0] != "w3" || order[1] != "w2" || order[2] != "w1" {
		t.Fatalf("hook order = %v, want [w3 w2 w1]", order)
	}
}

func TestBackwardYieldsToWorkStartedByHooks(t *testing.T) {
	// Backward's progress guarantee. On one processor, a goroutine
	// started by the hook of the first leaf to finish (w4) can run only
	// if Backward gives the processor up; the backward function of a
	// node two yields later (the hook under w2's MatMul) must see that
	// it ran. Nodes this small finish far inside the runtime's
	// preemption quantum, so without the yield it never does. Two
	// yields, because the scheduler resumes the yielding goroutine
	// first on one tick in 61.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(18))
	x := Constant(tensor.RandN(rng, 1, 2, 2))
	w1, w2, w3, w4 := randVar(rng, 2, 2), randVar(rng, 2, 2), randVar(rng, 2, 2), randVar(rng, 2, 2)
	var ran atomic.Bool
	done := make(chan struct{})
	w4.RegisterPostAccumulateHook(func(*Variable) {
		go func() {
			ran.Store(true)
			close(done)
		}()
	})
	seen := false
	h1 := BackwardHook(MatMul(x, w1), func() { seen = ran.Load() })
	Backward(Sum(MatMul(MatMul(MatMul(h1, w2), w3), w4)), nil)
	<-done
	if !seen {
		t.Fatal("a goroutine started by the first leaf's hook had not run two backward nodes later")
	}
}

func TestBackwardYieldsRightAfterALeafHook(t *testing.T) {
	// The other half of the guarantee: what a leaf's hook starts runs
	// before the next node's backward function, not after it. On one
	// processor the goroutine w2's hook starts can run only if Backward
	// yields between that hook and the hook node under it, the very next
	// thing it pops. The scheduler resumes the yielding goroutine first
	// on one tick in 61, hence the repetitions and the margin.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(18))
	const runs = 40
	seen := 0
	for i := 0; i < runs; i++ {
		x := Constant(tensor.RandN(rng, 1, 2, 2))
		w1, w2 := randVar(rng, 2, 2), randVar(rng, 2, 2)
		var ran atomic.Bool
		done := make(chan struct{})
		w2.RegisterPostAccumulateHook(func(*Variable) {
			go func() {
				ran.Store(true)
				close(done)
			}()
		})
		h1 := BackwardHook(MatMul(x, w1), func() {
			if ran.Load() {
				seen++
			}
		})
		Backward(Sum(MatMul(h1, w2)), nil)
		<-done
	}
	if seen < runs*3/4 {
		t.Fatalf("a goroutine started by a leaf's hook had run before the next backward node in %d of %d passes", seen, runs)
	}
}

func TestUnusedLeafGetsNoGradientOrHook(t *testing.T) {
	// The Fig 3(b) failure mode: a parameter skipped by the forward pass
	// never fires its hook. DDP must detect this by graph traversal.
	rng := rand.New(rand.NewSource(18))
	used := randVar(rng, 2)
	unused := randVar(rng, 2)
	fired := false
	unused.RegisterPostAccumulateHook(func(*Variable) { fired = true })
	Backward(Sum(used), nil)
	if fired || unused.Grad != nil {
		t.Fatal("unused leaf must not receive gradient or fire hook")
	}
}

func TestLeavesTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := randVar(rng, 2), randVar(rng, 2)
	c := randVar(rng, 2)
	_ = c
	frozen := NewLeaf(tensor.RandN(rng, 1, 2), false)
	out := Add(Add(a, b), Constant(frozen.Value))
	leaves := Leaves(out)
	if len(leaves) != 2 {
		t.Fatalf("Leaves = %d, want 2 (c unused, frozen not requiring grad)", len(leaves))
	}
	set := LeafSet(out)
	if !set[a] || !set[b] || set[c] {
		t.Fatalf("LeafSet wrong: %v", set)
	}
}

func TestDiamondGraphGradient(t *testing.T) {
	// x feeds two branches that rejoin: gradient must be the sum of both
	// paths. loss = sum(x*x + 3x) => d/dx = 2x + 3.
	x := NewLeaf(tensor.FromSlice([]float32{2}, 1), true)
	loss := Sum(Add(Mul(x, x), MulScalar(x, 3)))
	Backward(loss, nil)
	if x.Grad.At(0) != 7 {
		t.Fatalf("diamond grad = %v, want 7", x.Grad.At(0))
	}
}

func TestInferenceModeBuildsNoGraph(t *testing.T) {
	a := Constant(tensor.FromSlice([]float32{1, 2}, 2))
	b := Constant(tensor.FromSlice([]float32{3, 4}, 2))
	out := Add(a, b)
	if !out.IsLeaf() || out.RequiresGrad() {
		t.Fatal("ops on constants must stay detached")
	}
}

func TestExplicitGradientSeed(t *testing.T) {
	a := NewLeaf(tensor.FromSlice([]float32{1, 2}, 2), true)
	out := MulScalar(a, 2)
	Backward(out, tensor.FromSlice([]float32{10, 100}, 2))
	if a.Grad.At(0) != 20 || a.Grad.At(1) != 200 {
		t.Fatalf("seeded grad = %v", a.Grad)
	}
}
