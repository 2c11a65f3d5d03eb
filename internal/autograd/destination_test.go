package autograd

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// Backward tells each backward function which input gradients are read
// and, for a leaf with a registered destination, where the gradient
// belongs. The tests below pin when the offer is made, that a gradient
// written in place is installed as is, that every other situation
// leaves the destination alone, and that the gradients are bitwise what
// the same graph produces with no destination registered.

// poisoned returns a destination of the given shape holding NaN: what a
// backward function must overwrite in full, and what the engine must
// not touch when the offer is not made or not taken.
func poisoned(shape ...int) *tensor.Tensor {
	return tensor.Full(float32(math.NaN()), shape...)
}

func untouched(dst *tensor.Tensor) bool {
	for _, v := range dst.Data() {
		if !math.IsNaN(float64(v)) {
			return false
		}
	}
	return true
}

// withDestination registers dst on v and counts how often Backward
// asked for it.
func withDestination(v *Variable, dst *tensor.Tensor) *int {
	asked := new(int)
	v.SetGradDestination(func() *tensor.Tensor { *asked++; return dst })
	return asked
}

func TestGradientIsBornInItsDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xv, wv, uv := tensor.RandN(rng, 1, 5, 4), tensor.RandN(rng, 1, 4, 3), tensor.RandN(rng, 1, 6, 3)

	// w is the right operand of a MatMul (dW = xᵀ·g), u the right
	// operand of a MatMulTransB (dU = gᵀ·h), each used once.
	lossOver := func(w, u *Variable) *Variable {
		return Sum(MatMulTransB(Tanh(MatMul(Constant(xv), w)), u))
	}
	w0, u0 := NewLeaf(wv.Clone(), true), NewLeaf(uv.Clone(), true)
	Backward(lossOver(w0, u0), nil)

	w, u := NewLeaf(wv.Clone(), true), NewLeaf(uv.Clone(), true)
	wDst, uDst := poisoned(4, 3), poisoned(6, 3)
	wAsked, uAsked := withDestination(w, wDst), withDestination(u, uDst)
	Backward(lossOver(w, u), nil)
	if w.Grad != wDst || u.Grad != uDst {
		t.Fatal("a gradient written into its destination must be installed as Grad as is")
	}
	if *wAsked != 1 || *uAsked != 1 {
		t.Fatalf("destinations asked for %d and %d times, want once each", *wAsked, *uAsked)
	}
	if !testutil.SameBits(w.Grad, w0.Grad) || !testutil.SameBits(u.Grad, u0.Grad) {
		t.Fatal("gradients born in place differ from the ones the kernels allocate")
	}

	// Not zeroed: the second pass accumulates into Grad — here the
	// destination itself, as ddp's Grad is after a step — and is offered
	// nothing.
	Backward(lossOver(w, u), nil)
	if *wAsked != 1 || *uAsked != 1 {
		t.Fatal("a leaf that already has a gradient must not be offered its destination")
	}
	if w.Grad != wDst || !testutil.SameBits(w.Grad, tensor.Add(w0.Grad, w0.Grad)) {
		t.Fatal("second pass did not accumulate into the installed gradient")
	}
}

// TestDestinationUntouchedWhenGradientAccumulates: a weight used twice
// in one graph, and a leaf whose Grad is a tensor of its own from an
// earlier pass, both get their gradient by addition; the destination is
// neither asked for nor written, and the values are the reference's.
func TestDestinationUntouchedWhenGradientAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	xv, wv := tensor.RandN(rng, 1, 3, 3), tensor.RandN(rng, 1, 3, 3)
	twice := func(w *Variable) *Variable {
		return Sum(MatMul(Tanh(MatMul(Constant(xv), w)), w))
	}
	once := func(w *Variable) *Variable { return Sum(MatMul(Constant(xv), w)) }

	for _, c := range []struct {
		name   string
		passes []func(*Variable) *Variable
	}{
		{"weight used twice", []func(*Variable) *Variable{twice}},
		{"Grad kept from an earlier pass", []func(*Variable) *Variable{twice, once}},
	} {
		ref, w := NewLeaf(wv.Clone(), true), NewLeaf(wv.Clone(), true)
		dst := poisoned(3, 3)
		asked := withDestination(w, dst)
		for _, pass := range c.passes {
			Backward(pass(ref), nil)
			Backward(pass(w), nil)
		}
		if *asked != 0 || !untouched(dst) {
			t.Fatalf("%s: destination asked for %d times, untouched=%t; want never and intact", c.name, *asked, untouched(dst))
		}
		if w.Grad == dst || !testutil.SameBits(w.Grad, ref.Grad) {
			t.Fatalf("%s: gradient %v, reference %v", c.name, w.Grad, ref.Grad)
		}
	}
}

// TestIgnoredDestinationIsStillCorrect: an op without an into-form
// (Embedding allocates its scatter target) ignores the offer; the
// gradient arrives as a tensor of its own, for a hook to copy.
func TestIgnoredDestinationIsStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wv := tensor.RandN(rng, 1, 4, 3)
	ref, w := NewLeaf(wv.Clone(), true), NewLeaf(wv.Clone(), true)
	dst := poisoned(4, 3)
	asked := withDestination(w, dst)
	Backward(Sum(Embedding(ref, []int{1, 1, 3})), nil)
	Backward(Sum(Embedding(w, []int{1, 1, 3})), nil)
	if *asked != 1 || !untouched(dst) || w.Grad == dst {
		t.Fatalf("offer made %d times, destination untouched=%t", *asked, untouched(dst))
	}
	if !testutil.SameBits(w.Grad, ref.Grad) {
		t.Fatalf("gradient %v, reference %v", w.Grad, ref.Grad)
	}
}

// TestCheckpointedParametersUseTheirDestinations: the backward pass
// Checkpoint runs over the re-executed segment makes the same offers,
// and passes on that nothing reads the segment input's gradient.
func TestCheckpointedParametersUseTheirDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	xv, w1v, w2v := tensor.RandN(rng, 1, 2, 4), tensor.RandN(rng, 1, 4, 4), tensor.RandN(rng, 1, 4, 3)
	run := func(register bool) (p1, p2 *Variable, d1, d2 *tensor.Tensor, inputNeededGrad bool) {
		p1, p2 = NewLeaf(w1v.Clone(), true), NewLeaf(w2v.Clone(), true)
		d1, d2 = poisoned(4, 4), poisoned(4, 3)
		if register {
			withDestination(p1, d1)
			withDestination(p2, d2)
		}
		segment := func(in *Variable) *Variable {
			inputNeededGrad = in.RequiresGrad()
			return MatMul(Tanh(MatMul(in, p1)), p2)
		}
		Backward(Sum(Checkpoint(segment, Constant(xv))), nil)
		return
	}
	r1, r2, _, _, _ := run(false)
	p1, p2, d1, d2, inputNeededGrad := run(true)
	if p1.Grad != d1 || p2.Grad != d2 {
		t.Fatal("parameters of a checkpointed segment were not born in their destinations")
	}
	if !testutil.SameBits(p1.Grad, r1.Grad) || !testutil.SameBits(p2.Grad, r2.Grad) {
		t.Fatal("checkpointed gradients born in place differ from the allocated ones")
	}
	if inputNeededGrad {
		t.Fatal("the re-executed segment was asked for the gradient of a constant input")
	}
}

// TestConstantInputIsAskedForNothing: MatMul over a constant batch is
// told so and returns nil for it, and a whole backward pass over such a
// graph allocates less than that gradient alone would take.
func TestConstantInputIsAskedForNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const rows, in, out = 64, 256, 8
	x := Constant(tensor.RandN(rng, 1, rows, in))
	w := NewLeaf(tensor.RandN(rng, 1, in, out), true)
	withDestination(w, tensor.New(in, out))

	y := MatMul(x, w)
	g := tensor.Ones(rows, out)
	if got := y.node.backward(g, []request{{need: false}, {need: true}}); got[0] != nil || got[1] == nil {
		t.Fatalf("asked for the weight gradient only, MatMul returned %v", got)
	}
	if got := y.node.backward(g, []request{{need: true}, {need: false}}); got[0] == nil || got[1] != nil {
		t.Fatalf("asked for the input gradient only, MatMul returned %v", got)
	}

	pass := func() {
		w.ZeroGrad()
		Backward(Sum(MatMul(x, w)), nil)
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	// The forward product and the two [rows,out] gradients are 6 KB;
	// dX would be 64 KB and dW, were it not written in place, 8 KB.
	if got, dx := after.TotalAlloc-before.TotalAlloc, uint64(4*rows*in); got >= dx/4 {
		t.Fatalf("forward and backward allocated %d bytes; the unread input gradient alone is %d", got, dx)
	}
}
