package comm

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestRingAllReduceAllocatesNoFrames is the allocation gate for the
// collective data path: a warm in-proc world-4 Ring AllReduce of 1 Mi
// elements (4 MB) reuses pooled frame buffers and allocates only its
// schedule and goroutines — under 64 KiB per call, all ranks together.
// It allocated 25 MB per call when every in-proc Send copied its frame
// into a fresh slice.
func TestRingAllReduceAllocatesNoFrames(t *testing.T) {
	if transport.RaceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const world, n, calls = 4, 1 << 20, 10
	groups := NewInProcGroups(world, Options{Algorithm: Ring})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	bufs := make([][]float32, world)
	for r := range bufs {
		bufs[r] = make([]float32, n)
	}
	reduce := func(times int) {
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < times; i++ {
					if err := groups[r].AllReduce(bufs[r], Sum).Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	reduce(2) // warm the frame pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reduce(calls)
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes allocated per AllReduce", perCall)
	if perCall >= 64<<10 {
		t.Fatalf("a warm Ring AllReduce of %d elements allocates %d bytes per call, want < 64 KiB", n, perCall)
	}
}
