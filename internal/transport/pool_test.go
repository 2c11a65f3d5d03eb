package transport

import (
	"math"
	"testing"
)

func TestPoolReusesWithinASizeClass(t *testing.T) {
	p := &slicePool[float32]{elemBytes: 4, budget: 1 << 20}
	a := p.get(1000)
	if len(a) != 1000 || cap(a) != 1024 {
		t.Fatalf("get(1000): len %d cap %d, want 1000 and the class capacity 1024", len(a), cap(a))
	}
	p.put(a)
	b := p.get(600) // same class: (512, 1024]
	if len(b) != 600 || &b[0] != &a[0] {
		t.Fatal("a request of the same class did not reuse the released buffer")
	}
	if c := p.get(600); &c[0] == &b[0] {
		t.Fatal("one buffer handed out twice")
	}
	p.put(b)
	if d := p.get(512); &d[0] == &b[0] {
		t.Fatal("a request of the class below reused a larger buffer")
	}
	if p.get(0) != nil {
		t.Fatal("get(0) allocated")
	}
}

// TestPoolDropsWhatItDidNotAllocate: only whole buffers of a class
// capacity are kept. A sub-slice that does not start the buffer, or a
// slice some decorator allocated itself, goes to the garbage collector
// instead of being handed to the next caller at the wrong size.
func TestPoolDropsWhatItDidNotAllocate(t *testing.T) {
	p := &slicePool[byte]{elemBytes: 1, budget: 1 << 30}
	p.put(make([]byte, 100))  // capacity is no power of two
	p.put(p.get(64)[8:])      // tail of a pooled buffer: capacity 56
	p.put(nil)                // an empty frame
	p.put(make([]byte, 0, 0)) // likewise
	if p.held != 0 {
		t.Fatalf("pool retained %d bytes of foreign buffers", p.held)
	}
}

func TestPoolIsBounded(t *testing.T) {
	p := &slicePool[byte]{elemBytes: 1, budget: 1 << 20}
	for i := 0; i < 40; i++ {
		p.put(make([]byte, 64<<10))
	}
	if p.held != p.budget {
		t.Fatalf("pool holds %d bytes, want exactly the budget %d", p.held, p.budget)
	}
	if b := p.get(64 << 10); b == nil || p.held != p.budget-64<<10 {
		t.Fatalf("a get left %d bytes held", p.held)
	}
}

// TestReleasedBuffersArePoisonedUnderRace pins what makes the race
// build a use-after-release detector: a buffer handed back reads as
// NaN (0xFF bytes), so a collective that still folds or copies from it
// cannot produce the right bits by luck.
func TestReleasedBuffersArePoisonedUnderRace(t *testing.T) {
	f := GetFloats(100)
	b := GetBytes(100)
	for i := range f {
		f[i], b[i] = 1, 1
	}
	PutFloats(f)
	PutBytes(b)
	poisoned := math.IsNaN(float64(f[0])) && math.IsNaN(float64(f[99])) && b[0] == 0xFF && b[99] == 0xFF
	if poisoned != RaceEnabled {
		t.Fatalf("released buffers poisoned: %v, race detector on: %v", poisoned, RaceEnabled)
	}
}

// TestInProcFramesAreRecycled: a warm in-proc ping allocates no frame
// buffer once the receiver hands frames back.
func TestInProcFramesAreRecycled(t *testing.T) {
	if RaceEnabled {
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
		PutFloats(f)
		if err := meshes[0].(ByteMesh).SendBytes(1, 2, raw); err != nil {
			t.Fatal(err)
		}
		b, err := meshes[1].(ByteMesh).RecvBytes(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		PutBytes(b)
	}
	ping()
	if perRun := testing.AllocsPerRun(20, ping); perRun > 2 {
		t.Fatalf("a warm in-proc ping makes %v allocations; frames are not being recycled", perRun)
	}
}
