package buffer

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// heldGauge reads buffer_pool_held_bytes{elem} as a scrape does.
func heldGauge(t *testing.T, elem string) int {
	t.Helper()
	var text strings.Builder
	if _, err := metrics.Default().WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if v, ok := strings.CutPrefix(line, `buffer_pool_held_bytes{elem="`+elem+`"} `); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int(f)
		}
	}
	t.Fatalf("no buffer_pool_held_bytes sample for %q", elem)
	return 0
}

func TestPoolReusesWithinASizeClass(t *testing.T) {
	p := newPool[float32](4, 1<<20, 0, "test")
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
	p := newPool[byte](1, 1<<30, 0, "test")
	p.put(make([]byte, 100))  // capacity is no power of two
	p.put(p.get(64)[8:])      // tail of a pooled buffer: capacity 56
	p.put(nil)                // an empty frame
	p.put(make([]byte, 0, 0)) // likewise
	if p.held != 0 {
		t.Fatalf("pool retained %d bytes of foreign buffers", p.held)
	}
}

func TestPoolIsBounded(t *testing.T) {
	p := newPool[byte](1, 1<<20, 0, "test")
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

// TestGetClearsAndCounts: a buffer comes back zeroed, as make would
// give it, whatever the last holder left in it; only a Get that found
// its class empty counts as a miss; and the held-bytes gauge follows
// the pool to within publishStep.
func TestGetClearsAndCounts(t *testing.T) {
	p := newPool[float32](4, 1<<30, 0, "test-counts")
	a := p.get(100)
	for i := range a {
		a[i] = 7
	}
	p.put(a)
	b := p.get(128)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("element %d of a reused buffer is %v, want 0", i, v)
		}
	}
	p.get(128)
	if got := p.misses.Value(); got != 2 {
		t.Fatalf("three gets, one of them served from the pool, counted %v misses; want 2", got)
	}
	big := p.get(1 << 20) // 4 MiB
	p.put(big)
	if got := heldGauge(t, "test-counts"); got > p.held || got < p.held-publishStep {
		t.Fatalf("the gauge reads %d bytes held; the pool holds %d", got, p.held)
	}
	p.get(1 << 20)
	if got := heldGauge(t, "test-counts"); got > p.held+publishStep || got < p.held-publishStep {
		t.Fatalf("the gauge reads %d bytes held; the pool holds %d", got, p.held)
	}
}

// TestPoolDoublePutPanicsUnderRace: handing the same backing array back
// twice — what a release walk that missed shared storage does — panics
// under the race detector instead of handing the array to two callers.
func TestPoolDoublePutPanicsUnderRace(t *testing.T) {
	if !RaceEnabled {
		t.Skip("the pool tracks the buffers it holds only under the race detector")
	}
	p := newPool[float32](4, 1<<20, float32(math.NaN()), "test-double")
	b := p.get(64)
	p.put(b[:10]) // any length: the backing array is what is handed back
	defer func() {
		if recover() == nil {
			t.Fatal("a second put of one backing array did not panic")
		}
	}()
	p.put(b)
}
