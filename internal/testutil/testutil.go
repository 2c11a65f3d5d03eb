// Package testutil hosts small shared test fixtures: reproducible
// randomness for randomized tests (SeededRand), a manually advanced
// clock satisfying elastic.Clock (FakeClock) and the bit-for-bit tensor
// comparison of the differential tests (SameBits). Production code must
// not import it.
package testutil

import (
	"flag"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// SameBits reports whether a and b are both nil, or have the same shape
// and bit-for-bit the same elements. Unlike Tensor.Equal it tells -0
// from +0 and equates a NaN with itself: what "bitwise the reference"
// means in the tests that compare an optimized path with its oracle.
func SameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// chaosSeed pins every SeededRand in the test binary to one seed, so a
// failure logged with its seed is replayed exactly:
//
//	go test ./internal/comm/ -run TestParallelReduceMatchesSerial -chaos.seed=123
var chaosSeed = flag.Int64("chaos.seed", 0, "fixed seed for randomized tests (0: derive from entropy)")

// SeededRand returns a math/rand generator for a randomized test. The
// seed comes from -chaos.seed when set, otherwise from entropy, and is
// logged through t so a failing run's output always carries the seed
// needed to reproduce it.
func SeededRand(t testing.TB) *rand.Rand {
	t.Helper()
	seed := *chaosSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("testutil: seed %d (re-run with -chaos.seed=%d)", seed, seed)
	return rand.New(rand.NewSource(seed))
}

// FakeClock is a deterministic, manually advanced time source
// satisfying elastic.Clock. Sleepers block until Advance moves the
// clock past their deadline; tickers deliver one tick per elapsed
// interval (coalesced to the channel's capacity, like time.Ticker).
// Time never moves on its own, so lease expiry and round timeouts
// become an explicit, schedulable part of a test.
type FakeClock struct {
	mu       sync.Mutex
	now      time.Time
	sleepers []*fakeSleeper
	tickers  []*fakeTicker
}

type fakeSleeper struct {
	deadline time.Time
	ch       chan struct{}
}

type fakeTicker struct {
	interval time.Duration
	next     time.Time
	ch       chan time.Time
	stopped  bool
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the clock's current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep blocks the caller until Advance moves the clock at least d
// past the current reading. Sleep(0) and negative sleeps return
// immediately.
func (c *FakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	s := &fakeSleeper{deadline: c.now.Add(d), ch: make(chan struct{})}
	c.sleepers = append(c.sleepers, s)
	c.mu.Unlock()
	<-s.ch
}

// Tick returns a channel receiving one tick per elapsed interval of
// fake time, plus a stop function.
func (c *FakeClock) Tick(d time.Duration) (<-chan time.Time, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTicker{interval: d, next: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.tickers = append(c.tickers, t)
	return t.ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		t.stopped = true
	}
}

// Advance moves the clock forward by d, waking every sleeper whose
// deadline passed and delivering due ticks.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var wake []*fakeSleeper
	remaining := c.sleepers[:0]
	for _, s := range c.sleepers {
		if !s.deadline.After(c.now) {
			wake = append(wake, s)
		} else {
			remaining = append(remaining, s)
		}
	}
	c.sleepers = remaining
	for _, t := range c.tickers {
		for !t.stopped && !t.next.After(c.now) {
			select {
			case t.ch <- t.next:
			default: // receiver behind: coalesce, like time.Ticker
			}
			t.next = t.next.Add(t.interval)
		}
	}
	c.mu.Unlock()
	for _, s := range wake {
		close(s.ch)
	}
}
