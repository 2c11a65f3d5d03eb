package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func checkpointModel(seed int64) Module {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewLinear(rng, "fc1", 4, 6),
		NewBatchNorm("bn", 6),
		ReLU{},
		NewLinear(rng, "fc2", 6, 2),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := checkpointModel(1)
	// Mutate buffers so the round trip covers them.
	src.Forward(autograd.Constant(tensor.Ones(3, 4)))

	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := checkpointModel(2) // different init
	if err := LoadState(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range dst.Parameters() {
		if !p.Value.Equal(src.Parameters()[i].Value) {
			t.Fatalf("parameter %s not restored", p.Name)
		}
	}
	for i, b := range dst.Buffers() {
		if !b.Data.Equal(src.Buffers()[i].Data) {
			t.Fatalf("buffer %s not restored", b.Name)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	wrongShape := NewSequential(
		NewLinear(rng, "fc1", 4, 8), // different width
		NewBatchNorm("bn", 8),
		ReLU{},
		NewLinear(rng, "fc2", 8, 2),
	)
	if err := LoadState(&buf, wrongShape); err == nil {
		t.Fatal("mismatched shapes must be rejected")
	}

	buf.Reset()
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	wrongNames := NewSequential(
		NewLinear(rng, "other", 4, 6),
		NewBatchNorm("bn", 6),
		ReLU{},
		NewLinear(rng, "fc2", 6, 2),
	)
	err := LoadState(&buf, wrongNames)
	if err == nil || !strings.Contains(err.Error(), "other") {
		t.Fatalf("mismatched names must be rejected with detail, got %v", err)
	}
}

func TestLoadReportsMismatchedShapeByName(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	wrongShape := NewSequential(
		NewLinear(rng, "fc1", 4, 8), // widened: fc1's tensors change shape
		NewBatchNorm("bn", 8),
		ReLU{},
		NewLinear(rng, "fc2", 8, 2),
	)
	err := LoadState(&buf, wrongShape)
	if err == nil {
		t.Fatal("mismatched shapes must be rejected")
	}
	// The error must identify the offending entry and both shapes, not
	// just say "mismatch".
	for _, want := range []string{"fc1", "[4 6]", "[4 8]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("shape mismatch error %q does not mention %q", err, want)
		}
	}
}

func TestSaveStateWritesVersionHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, checkpointModel(1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 12 || string(raw[:8]) != "GONNSD01" {
		t.Fatalf("stream does not start with the state magic: % x", raw[:12])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != StateFormatVersion {
		t.Fatalf("header version %d, want %d", v, StateFormatVersion)
	}
}

func TestLoadStateAcceptsLegacyHeaderlessStream(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	legacy := buf.Bytes()[12:] // strip the header: the pre-version encoding
	dst := checkpointModel(2)
	if err := LoadState(bytes.NewReader(legacy), dst); err != nil {
		t.Fatalf("legacy stream rejected: %v", err)
	}
	for i, p := range dst.Parameters() {
		if !p.Value.Equal(src.Parameters()[i].Value) {
			t.Fatalf("parameter %s not restored from legacy stream", p.Name)
		}
	}
}

func TestLoadStateRejectsNewerFormatVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, checkpointModel(1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[8:12], StateFormatVersion+1)
	err := LoadState(bytes.NewReader(raw), checkpointModel(2))
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future-version stream must be rejected loudly, got %v", err)
	}
}

func TestLoadRejectsWrongParameterCount(t *testing.T) {
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	small := NewLinear(rand.New(rand.NewSource(4)), "fc1", 4, 6)
	if err := LoadState(&buf, small); err == nil {
		t.Fatal("wrong parameter count must be rejected")
	}
}

func TestLoadIsAtomicOnValidationFailure(t *testing.T) {
	// A failed load must not partially overwrite the destination.
	src := checkpointModel(1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	dst := NewSequential(
		NewLinear(rng, "fc1", 4, 6), // matches
		NewBatchNorm("bn", 6),       // matches
		ReLU{},
		NewLinear(rng, "zzz", 6, 2), // name mismatch at the end
	)
	before := dst.Parameters()[0].Value.Clone()
	if err := LoadState(&buf, dst); err == nil {
		t.Fatal("expected validation error")
	}
	if !dst.Parameters()[0].Value.Equal(before) {
		t.Fatal("failed load partially overwrote the model")
	}
}

func TestResumeTrainingFromCheckpoint(t *testing.T) {
	// Train, checkpoint, keep training; separately restore and continue
	// — both continuations must match exactly.
	rng := rand.New(rand.NewSource(6))
	x := autograd.Constant(tensor.RandN(rng, 1, 5, 4))
	y := autograd.Constant(tensor.RandN(rng, 1, 5, 2))
	m := checkpointModel(7)
	step := func(mod Module) {
		ZeroGrad(mod)
		out := mod.Forward(x)
		autograd.Backward(autograd.MSELoss(out, y), nil)
		for _, p := range mod.Parameters() {
			pv := p.Value.Data()
			for i, g := range p.Grad.Data() {
				pv[i] += float32(-0.05 * g)
			}
		}
	}
	step(m)
	var ckpt bytes.Buffer
	if err := SaveState(&ckpt, m); err != nil {
		t.Fatal(err)
	}
	step(m) // continue original

	restored := checkpointModel(8)
	if err := LoadState(&ckpt, restored); err != nil {
		t.Fatal(err)
	}
	step(restored) // continue restored

	for i, p := range restored.Parameters() {
		if !p.Value.Equal(m.Parameters()[i].Value) {
			t.Fatalf("resumed training diverged at parameter %s", p.Name)
		}
	}
}
