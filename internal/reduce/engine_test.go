package reduce

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/transport"
)

// fakeLaunch records launch order and completes immediately.
type fakeLaunch struct {
	order []int
}

func (f *fakeLaunch) launch(bucket int, flat, resFlat []float32) comm.Work {
	f.order = append(f.order, bucket)
	return comm.CompletedWork(nil)
}

func newTestEngine(t *testing.T, sizes []int, capBytes int, f *fakeLaunch, cfg Config) *Engine {
	t.Helper()
	cfg.Sizes = sizes
	cfg.Launch = f.launch
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := AssignBuckets(sizes, capBytes, 4, ReverseOrder(len(sizes)))
	if err != nil {
		t.Fatal(err)
	}
	e.Install(assign)
	return e
}

// TestInOrderPrefixLaunch is the Fig 3(a) rule at the engine level:
// a later bucket becoming ready first must not launch until every
// earlier bucket has.
func TestInOrderPrefixLaunch(t *testing.T) {
	f := &fakeLaunch{}
	e := newTestEngine(t, []int{2, 3, 4, 5}, -1, f, Config{})
	// Reverse order: bucket0={3}, bucket1={2}, bucket2={1}, bucket3={0}.
	e.Reset()
	g := []float32{9, 9, 9, 9, 9}
	e.CopyIn(0, g[:2])
	e.MarkReady(0) // bucket 3: must wait
	if len(f.order) != 0 {
		t.Fatalf("bucket 3 launched before buckets 0-2: %v", f.order)
	}
	e.CopyIn(3, g)
	e.MarkReady(3) // bucket 0: launches alone
	e.CopyIn(2, g[:4])
	e.MarkReady(2) // bucket 1: launches
	e.CopyIn(1, g[:3])
	e.MarkReady(1) // bucket 2 ready; pending bucket 3 launches too
	if want := []int{0, 1, 2, 3}; len(f.order) != 4 || f.order[0] != 0 || f.order[1] != 1 || f.order[2] != 2 || f.order[3] != 3 {
		t.Fatalf("launch order %v, want %v", f.order, want)
	}
	if e.Launched() != e.NumBuckets() {
		t.Fatalf("Launched() = %d, want %d", e.Launched(), e.NumBuckets())
	}
	seen := 0
	if err := e.WaitAll(func(b int, flat []float32) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Fatalf("consume saw %d buckets, want 4", seen)
	}
}

// TestDoubleMarkReadyPanics: double-firing a parameter's hook is a
// wiring bug and must not be absorbed silently.
func TestDoubleMarkReadyPanics(t *testing.T) {
	f := &fakeLaunch{}
	e := newTestEngine(t, []int{2, 2}, 1<<20, f, Config{})
	e.Reset()
	e.MarkReady(1)
	e.MarkReady(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second MarkReady did not panic")
		}
		if !strings.Contains(r.(string), "marked ready twice") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e.MarkReady(1)
}

// TestResidualsCarriedAcrossInstall: accumulated residuals survive a
// bucket-layout swap, keyed by parameter identity; with the planted
// testing bug they reset instead.
func TestResidualsCarriedAcrossInstall(t *testing.T) {
	sizes := []int{2, 3}
	for _, planted := range []bool{false, true} {
		f := &fakeLaunch{}
		e := newTestEngine(t, sizes, 1<<20, f, Config{
			TrackResiduals:                 true,
			TestingResetResidualsOnInstall: planted,
		})
		if err := e.SetResidualState([]float32{1, 2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
		// Swap to per-parameter buckets (different layout).
		assign, err := AssignBuckets(sizes, -1, 4, ReverseOrder(len(sizes)))
		if err != nil {
			t.Fatal(err)
		}
		e.Install(assign)
		got := e.ResidualState()
		if planted {
			for i, v := range got {
				if v != 0 {
					t.Fatalf("planted bug: residual %d = %v, want 0", i, v)
				}
			}
			continue
		}
		for i, want := range []float32{1, 2, 3, 4, 5} {
			if got[i] != want {
				t.Fatalf("residual %d = %v, want %v after rebuild", i, got[i], want)
			}
		}
	}
}

// TestTransientReleasesBuffers: a Transient engine holds zero bucket
// bytes between iterations, only the flats of buckets that have a
// gradient within one, and still carries residuals.
func TestTransientReleasesBuffers(t *testing.T) {
	f := &fakeLaunch{}
	// Per-parameter buckets, reverse order: bucket 0 = {1}, bucket 1 = {0}.
	e := newTestEngine(t, []int{4, 2}, -1, f, Config{Transient: true, TrackResiduals: true})
	want := []float32{7, 8, 9, 10, 11, 12}
	if err := e.SetResidualState(want); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 2; iter++ {
		e.Reset()
		if got := e.BucketBytes(); got != 0 {
			t.Fatalf("iteration %d: BucketBytes = %d after Reset, want 0 until a slot is written", iter, got)
		}
		e.CopyIn(1, []float32{1, 2})
		if got, want := e.BucketBytes(), 4*(2+2); got != want {
			t.Fatalf("iteration %d: BucketBytes = %d with one bucket written, want %d (gradient + residual flat)", iter, got, want)
		}
		e.MarkReady(1)
		e.CopyIn(0, []float32{1, 2, 3, 4})
		if got, want := e.BucketBytes(), 4*(2+2+4+4); got != want {
			t.Fatalf("iteration %d: BucketBytes = %d with both buckets written, want %d", iter, got, want)
		}
		e.MarkReady(0)
		if err := e.WaitAll(nil); err != nil {
			t.Fatal(err)
		}
		if got := e.BucketBytes(); got != 0 {
			t.Fatalf("iteration %d: BucketBytes = %d after WaitAll, want 0", iter, got)
		}
		for i, v := range e.ResidualState() {
			if v != want[i] {
				t.Fatalf("iteration %d: residual %d = %v, want %v after transient release", iter, i, v, want[i])
			}
		}
	}
}

// TestTransientResidualsFollowTheLaunch: what a collective leaves in a
// Transient bucket's residual buffer reaches the per-parameter store
// before the buffer goes back to the pool, and is scattered into the
// next iteration's buffer — which is a different, pool-recycled slice
// (poisoned under the race detector).
func TestTransientResidualsFollowTheLaunch(t *testing.T) {
	launch := func(bucket int, flat, resFlat []float32) comm.Work {
		for i := range resFlat {
			resFlat[i] += float32(i + 1)
		}
		return comm.CompletedWork(nil)
	}
	sizes := []int{3}
	e, err := NewEngine(Config{Sizes: sizes, Launch: launch, Transient: true, TrackResiduals: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := AssignBuckets(sizes, 1<<20, 4, ReverseOrder(len(sizes)))
	if err != nil {
		t.Fatal(err)
	}
	e.Install(assign)
	for iter := 1; iter <= 3; iter++ {
		e.Reset()
		e.CopyIn(0, []float32{0, 0, 0})
		e.MarkReady(0)
		if err := e.WaitAll(nil); err != nil {
			t.Fatal(err)
		}
		for i, v := range e.ResidualState() {
			if want := float32(iter * (i + 1)); v != want {
				t.Fatalf("iteration %d: residual %d = %v, want %v", iter, i, v, want)
			}
		}
	}
}

// TestTransientCycleAllocatesNothing is the allocation gate for the
// sharded wrappers' gradient path (in the style of comm's
// TestRingAllReduceAllocatesNoFrames): a warm Transient engine cycle
// over 1 MiB buckets with residual tracking draws every flat from the
// transport pool and allocates under 1 KB. Reset used to make every
// flat anew, 8 MB a cycle at these sizes.
func TestTransientCycleAllocatesNothing(t *testing.T) {
	if transport.RaceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const params, elems, cycles = 4, 1 << 18, 10
	sizes := make([]int, params)
	for i := range sizes {
		sizes[i] = elems
	}
	f := &fakeLaunch{order: make([]int, 0, params*(cycles+2))}
	e := newTestEngine(t, sizes, 4*elems, f, Config{Transient: true, TrackResiduals: true})
	if e.NumBuckets() != params {
		t.Fatalf("fixture packs %d buckets, want %d", e.NumBuckets(), params)
	}
	grad := make([]float32, elems)
	cycle := func() {
		e.Reset()
		for i := params - 1; i >= 0; i-- {
			e.CopyIn(i, grad)
			e.MarkReady(i)
		}
		if err := e.WaitAll(nil); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the pool
	cycle()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d bytes allocated per cycle", perCycle)
	if perCycle >= 1<<10 {
		t.Fatalf("a warm Transient engine cycle allocates %d bytes, want < 1 KB", perCycle)
	}
}

// TestWaitAllRejectsUnlaunched: waiting with an incomplete prefix is a
// caller bug surfaced as an error, not a hang.
func TestWaitAllRejectsUnlaunched(t *testing.T) {
	f := &fakeLaunch{}
	e := newTestEngine(t, []int{2, 2}, -1, f, Config{})
	e.Reset()
	if err := e.WaitAll(nil); err == nil {
		t.Fatal("WaitAll succeeded with no bucket launched")
	}
}
