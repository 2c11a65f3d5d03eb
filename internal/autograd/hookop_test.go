package autograd

import (
	"testing"

	"repro/internal/tensor"
)

// TestBackwardHookFiresBeforeProducerBackward pins the ordering
// contract ZeRO-3 depends on: the hook inserted on a layer's output
// runs before the gradient reaches the layer's own parameters, and the
// gradient values are unchanged by the interception.
func TestBackwardHookFiresBeforeProducerBackward(t *testing.T) {
	w := NewLeaf(tensor.FromSlice([]float32{2, 3}, 2), true)
	x := Constant(tensor.FromSlice([]float32{4, 5}, 2))

	var events []string
	w.RegisterPostAccumulateHook(func(*Variable) { events = append(events, "w-grad") })

	out := mul(w, x)
	out = BackwardHook(out, func() { events = append(events, "hook") })
	loss := Sum(out)
	Backward(loss, nil)

	if len(events) != 2 || events[0] != "hook" || events[1] != "w-grad" {
		t.Fatalf("event order %v, want [hook w-grad]", events)
	}
	// d(sum(w*x))/dw = x, untouched by the identity hop.
	for i, want := range []float32{4, 5} {
		if got := w.Grad.Data()[i]; got != want {
			t.Fatalf("w.Grad[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestBackwardHookDetachedInput: wrapping a non-graph value returns a
// detached constant and the hook never fires.
func TestBackwardHookDetachedInput(t *testing.T) {
	c := Constant(tensor.FromSlice([]float32{1}, 1))
	fired := false
	out := BackwardHook(c, func() { fired = true })
	if out.requiresGrad {
		t.Fatal("hook on a constant must stay detached")
	}
	if fired {
		t.Fatal("hook fired during construction")
	}
}
