package models

import (
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestResNet50ExactParameterCount(t *testing.T) {
	p := ResNet50()
	// torchvision.models.resnet50: 25,557,032 parameters.
	if got := p.TotalParams(); got != 25_557_032 {
		t.Fatalf("ResNet50 params = %d, want 25557032", got)
	}
	if len(p.Params) != 161 {
		t.Fatalf("ResNet50 tensors = %d, want 161", len(p.Params))
	}
}

func TestResNet152ParameterCount(t *testing.T) {
	p := ResNet152()
	// torchvision.models.resnet152: 60,192,808 parameters — the ~60M
	// model of the paper's Fig 2(c)/(d).
	if got := p.TotalParams(); got != 60_192_808 {
		t.Fatalf("ResNet152 params = %d, want 60192808", got)
	}
}

func TestBERTLargeParameterCount(t *testing.T) {
	p := BERTLarge()
	// bert-large-uncased encoder + embeddings + pooler: 335,141,888.
	if got := p.TotalParams(); got != 335_141_888 {
		t.Fatalf("BERT-large params = %d, want 335141888", got)
	}
	// Paper: "BERT model contains 15X more parameters compared to
	// ResNet50" — ratio should be in the 13-15x range.
	ratio := float64(p.TotalParams()) / float64(ResNet50().TotalParams())
	if ratio < 12 || ratio > 16 {
		t.Fatalf("BERT/ResNet50 ratio = %v", ratio)
	}
}

func TestProfileOrderingAndSizes(t *testing.T) {
	p := ResNet50()
	if p.Params[0].Name != "conv1.weight" {
		t.Fatalf("first param = %s", p.Params[0].Name)
	}
	if p.Params[len(p.Params)-1].Name != "fc.bias" {
		t.Fatalf("last param = %s", p.Params[len(p.Params)-1].Name)
	}
	sizes := p.Sizes()
	if len(sizes) != len(p.Params) {
		t.Fatal("Sizes length mismatch")
	}
	if sizes[0] != 64*3*7*7 {
		t.Fatalf("conv1 size = %d", sizes[0])
	}
}

func TestBERTHasManySmallAndLargeParams(t *testing.T) {
	// The bucketing experiments depend on BERT's mix of large embedding
	// matrices and hundreds of small LayerNorm vectors.
	p := BERTLarge()
	small, large := 0, 0
	for _, s := range p.Params {
		if s.Elems() < 10_000 {
			small++
		}
		if s.Elems() > 1_000_000 {
			large++
		}
	}
	if small < 100 {
		t.Fatalf("expected many small params, got %d", small)
	}
	if large < 20 {
		t.Fatalf("expected many large params, got %d", large)
	}
}

func TestMLPTrainsForward(t *testing.T) {
	m := NewMLP(1, 10, 16, 4)
	rng := rand.New(rand.NewSource(2))
	out := m.Forward(autograd.Constant(tensor.RandN(rng, 1, 3, 10)))
	if out.Value.Dims(0) != 3 || out.Value.Dims(1) != 4 {
		t.Fatalf("MLP output shape %v", out.Value.Shape())
	}
	autograd.Backward(autograd.Sum(out), nil)
	for _, p := range m.Parameters() {
		if p.Grad == nil {
			t.Fatalf("parameter %s missing grad", p.Name)
		}
	}
}

func TestSmallCNNShapesAndBuffers(t *testing.T) {
	m := NewSmallCNN(3, 1, 16, 10)
	rng := rand.New(rand.NewSource(4))
	out := m.Forward(autograd.Constant(tensor.RandN(rng, 1, 2, 1, 16, 16)))
	if out.Value.Dims(1) != 10 {
		t.Fatalf("CNN output shape %v", out.Value.Shape())
	}
	if len(nn.Module(m).Buffers()) == 0 {
		t.Fatal("CNN must expose BatchNorm buffers (DDP broadcasts them)")
	}
	autograd.Backward(autograd.Sum(out), nil)
}

func TestTinyTransformerForward(t *testing.T) {
	m := NewTinyTransformer(5, 16, 4, 32, 2)
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandN(rng, 1, 4, 16)
	out := m.Forward(autograd.Constant(x))
	if out.Value.Dims(0) != 4 || out.Value.Dims(1) != 16 {
		t.Fatalf("transformer output shape %v", out.Value.Shape())
	}
	autograd.Backward(autograd.Sum(out), nil)
	// Per block: 2 LayerNorms (4 tensors) + attention (8) + FFN (4) = 16;
	// plus the final LayerNorm (2).
	if got := len(m.Parameters()); got != 2*16+2 {
		t.Fatalf("transformer parameter tensors = %d, want 34", got)
	}
	for _, p := range m.Parameters() {
		if p.Grad == nil {
			t.Fatalf("parameter %s missing grad", p.Name)
		}
	}
}

func TestTinyTransformerTrainsUnderDDPShapes(t *testing.T) {
	// The tiny transformer must produce a full gradient set (every
	// parameter participates), so plain DDP without FindUnused works.
	m := NewTinyTransformer(5, 8, 2, 16, 1)
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandN(rng, 1, 3, 8)
	out := m.Forward(autograd.Constant(x))
	autograd.Backward(autograd.MSELoss(out, autograd.Constant(tensor.New(out.Value.Shape()...))), nil)
	for _, p := range m.Parameters() {
		if p.Grad == nil {
			t.Fatalf("parameter %s unused in transformer graph", p.Name)
		}
	}
}
