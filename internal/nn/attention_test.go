package nn

import (
	"math"
	"math/rand"
	"repro/internal/testutil"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func TestAttentionShapesAndGradientFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	attn := NewMultiHeadAttention(rng, "attn", 8, 2)
	x := autograd.NewLeaf(tensor.RandN(rng, 1, 5, 8), true)
	out := attn.Forward(x)
	if out.Value.Dims(0) != 5 || out.Value.Dims(1) != 8 {
		t.Fatalf("attention output shape %v", out.Value.Shape())
	}
	autograd.Backward(autograd.Sum(out), nil)
	if x.Grad == nil {
		t.Fatal("no gradient to input")
	}
	for _, p := range attn.Parameters() {
		if p.Grad == nil {
			t.Fatalf("parameter %s missing grad", p.Name)
		}
	}
	if len(attn.Parameters()) != 8 {
		t.Fatalf("attention params = %d, want 8 (4 projections x W,b)", len(attn.Parameters()))
	}
}

func TestAttentionNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	attn := NewMultiHeadAttention(rng, "attn", 4, 2)
	x := tensor.RandN(rng, 1, 3, 4)

	forward := func() float32 {
		out := attn.Forward(autograd.Constant(x))
		return tensor.Sum(out.Value).Item()
	}
	ZeroGrad(attn)
	out := attn.Forward(autograd.Constant(x))
	autograd.Backward(autograd.Sum(out), nil)

	const eps = 1e-2
	for _, p := range []*Parameter{attn.Query.W, attn.Value.W, attn.Output.W, attn.Key.W} {
		for _, i := range []int{0, p.Value.Size() / 2, p.Value.Size() - 1} {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + eps
			up := forward()
			p.Value.Data()[i] = orig - eps
			down := forward()
			p.Value.Data()[i] = orig
			num := (up - down) / (2 * eps)
			got := p.Grad.Data()[i]
			if math.Abs(float64(num-got)) > 2e-2*(1+math.Abs(float64(num))) {
				t.Fatalf("%s grad[%d] = %v, numerical %v", p.Name, i, got, num)
			}
		}
	}
}

func TestAttentionIsPermutationSensitiveViaValues(t *testing.T) {
	// Self-attention output for token i depends on all tokens: changing
	// token j must change token i's output (unlike a pure MLP).
	rng := rand.New(rand.NewSource(3))
	attn := NewMultiHeadAttention(rng, "attn", 8, 2)
	x := tensor.RandN(rng, 1, 4, 8)
	out1 := attn.Forward(autograd.Constant(x)).Value.Clone()
	x.Set(x.At(3, 0)+5, 3, 0) // perturb the last token
	out2 := attn.Forward(autograd.Constant(x)).Value
	changed := false
	for j := 0; j < 8; j++ {
		if out1.At(0, j) != out2.At(0, j) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("token 0's output ignored token 3 — attention not mixing")
	}
}

func TestAttentionRejectsBadHeadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention(rand.New(rand.NewSource(1)), "bad", 6, 4)
}

func TestTransformerBlockForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	blk := NewTransformerBlock(rng, "layer0", 8, 2, 16)
	x := autograd.NewLeaf(tensor.RandN(rng, 1, 6, 8), true)
	out := blk.Forward(x)
	if out.Value.Dims(0) != 6 || out.Value.Dims(1) != 8 {
		t.Fatalf("block output shape %v", out.Value.Shape())
	}
	autograd.Backward(autograd.MSELoss(out, autograd.Constant(tensor.New(out.Value.Shape()...))), nil)
	// 2 LayerNorms x 2 + attention 8 + up/down 2x2 = 16 parameters.
	if got := len(blk.Parameters()); got != 16 {
		t.Fatalf("block params = %d, want 16", got)
	}
	for _, p := range blk.Parameters() {
		if p.Grad == nil {
			t.Fatalf("parameter %s missing grad", p.Name)
		}
	}
	if x.Grad == nil {
		t.Fatal("no gradient to input")
	}
}

func TestSliceColsAndMatMulTransBGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := autograd.NewLeaf(tensor.RandN(rng, 1, 3, 6), true)
	sliced := autograd.SliceCols(a, 2, 5)
	if sliced.Value.Dims(1) != 3 {
		t.Fatalf("slice shape %v", sliced.Value.Shape())
	}
	autograd.Backward(autograd.Sum(sliced), nil)
	// Columns 2-4 get gradient 1, the rest 0.
	for r := 0; r < 3; r++ {
		for c := 0; c < 6; c++ {
			want := float32(0)
			if c >= 2 && c < 5 {
				want = 1
			}
			if a.Grad.At(r, c) != want {
				t.Fatalf("slice grad[%d,%d] = %v, want %v", r, c, a.Grad.At(r, c), want)
			}
		}
	}

	x := autograd.NewLeaf(tensor.RandN(rng, 1, 2, 4), true)
	y := autograd.NewLeaf(tensor.RandN(rng, 1, 3, 4), true)
	out := autograd.MatMulTransB(x, y)
	want := tensor.MatMul(x.Value, transpose(y.Value))
	if !testutil.AllClose(out.Value, want, 1e-5, 1e-6) {
		t.Fatal("MatMulTransB forward wrong")
	}
	autograd.Backward(autograd.Sum(out), nil)
	if x.Grad == nil || y.Grad == nil {
		t.Fatal("MatMulTransB grads missing")
	}
	// Compare against the equivalent explicit-transpose formulation.
	x2 := autograd.NewLeaf(x.Value.Clone(), true)
	y2t := autograd.NewLeaf(transpose(y.Value), true)
	autograd.Backward(autograd.Sum(autograd.MatMul(x2, y2t)), nil)
	if !testutil.AllClose(x.Grad, x2.Grad, 1e-5, 1e-6) {
		t.Fatal("MatMulTransB dA disagrees with explicit transpose")
	}
	if !testutil.AllClose(y.Grad, transpose(y2t.Grad), 1e-5, 1e-6) {
		t.Fatal("MatMulTransB dB disagrees with explicit transpose")
	}
}

// transpose is the explicit transpose MatMulTransB is checked against.
func transpose(a *tensor.Tensor) *tensor.Tensor {
	m, n := a.Dims(0), a.Dims(1)
	out := tensor.New(n, m)
	for i := range m {
		for j := range n {
			out.Data()[j*m+i] = a.Data()[i*n+j]
		}
	}
	return out
}
