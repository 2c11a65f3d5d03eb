package testutil

import (
	"repro/internal/tensor"
	"sync"
	"testing"
	"time"
)

func TestFakeClockSleepWakesAtDeadline(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		clk.Sleep(100 * time.Millisecond)
		close(done)
	}()
	// Wait for the sleeper to register before moving time, or its
	// deadline would be measured from a later reading.
	for {
		clk.mu.Lock()
		n := len(clk.sleepers)
		clk.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// An advance short of the deadline must not wake the sleeper.
	clk.Advance(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sleeper woke before its deadline")
	case <-time.After(10 * time.Millisecond):
	}
	clk.Advance(50 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper never woke")
	}
	wg.Wait()
	if got := clk.Now(); got != time.Unix(0, 0).Add(100*time.Millisecond) {
		t.Fatalf("clock reads %v after advances", got)
	}
}

func TestFakeClockTickerDeliversAndCoalesces(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tick, stop := clk.Tick(10 * time.Millisecond)
	defer stop()
	// One large advance covers many intervals but the unread channel
	// coalesces them, exactly like time.Ticker.
	clk.Advance(100 * time.Millisecond)
	select {
	case <-tick:
	default:
		t.Fatal("no tick after advancing past the interval")
	}
	select {
	case <-tick:
		t.Fatal("coalesced ticks were not dropped")
	default:
	}
	// After stop, advances deliver nothing.
	stop()
	clk.Advance(100 * time.Millisecond)
	select {
	case <-tick:
		t.Fatal("tick delivered after stop")
	default:
	}
}

func TestSeededRandIsDeterministicPerSeed(t *testing.T) {
	old := *chaosSeed
	defer func() { *chaosSeed = old }()
	*chaosSeed = 42
	a := SeededRand(t)
	b := SeededRand(t)
	for i := 0; i < 16; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, x, y)
		}
	}
}

func TestAllClose(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 2)
	if !AllClose(a, tensor.FromSlice([]float32{1.0001, 2}, 2), 1e-3, 1e-3) {
		t.Fatal("AllClose should accept small differences")
	}
	if AllClose(a, tensor.FromSlice([]float32{2, 2}, 2), 1e-3, 1e-3) {
		t.Fatal("AllClose should reject large differences")
	}
	if AllClose(a, tensor.FromSlice([]float32{1, 2}, 1, 2), 1e-3, 1e-3) {
		t.Fatal("AllClose should reject a different shape")
	}
}
