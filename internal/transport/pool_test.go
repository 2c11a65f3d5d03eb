package transport

import (
	"math"
	"testing"

	"repro/internal/buffer"
)

// TestReleasedBuffersArePoisonedUnderRace pins what makes the race
// build a use-after-release detector: a buffer handed back reads as
// NaN (0xFF bytes), so a collective that still folds or copies from it
// cannot produce the right bits by luck.
func TestReleasedBuffersArePoisonedUnderRace(t *testing.T) {
	f := buffer.GetFloats(100)
	b := buffer.GetBytes(100)
	for i := range f {
		f[i], b[i] = 1, 1
	}
	buffer.PutFloats(f)
	buffer.PutBytes(b)
	poisoned := math.IsNaN(float64(f[0])) && math.IsNaN(float64(f[99])) && b[0] == 0xFF && b[99] == 0xFF
	if poisoned != buffer.RaceEnabled {
		t.Fatalf("released buffers poisoned: %v, race detector on: %v", poisoned, buffer.RaceEnabled)
	}
}

// TestInProcFramesAreRecycled: a warm in-proc ping allocates no frame
// buffer once the receiver hands frames back.
func TestInProcFramesAreRecycled(t *testing.T) {
	if buffer.RaceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	meshes := NewInProcMeshes(2)
	payload := make([]float32, 1<<16)
	raw := make([]byte, 1<<16)
	ping := func() {
		if err := meshes[0].Send(1, 1, payload); err != nil {
			t.Fatal(err)
		}
		f, err := meshes[1].Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		buffer.PutFloats(f)
		if err := meshes[0].(ByteMesh).SendBytes(1, 2, raw); err != nil {
			t.Fatal(err)
		}
		b, err := meshes[1].(ByteMesh).RecvBytes(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		buffer.PutBytes(b)
	}
	ping()
	if perRun := testing.AllocsPerRun(20, ping); perRun > 2 {
		t.Fatalf("a warm in-proc ping makes %v allocations; frames are not being recycled", perRun)
	}
}
