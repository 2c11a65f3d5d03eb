package comm

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
)

// newRoundRobins builds each rank's roundRobin over `sub` in-proc
// sub-groups.
func newRoundRobins(t *testing.T, world, sub int) []*roundRobin {
	t.Helper()
	subs := make([][]ProcessGroup, sub)
	for i := range subs {
		subs[i] = NewInProcGroups(world, Options{})
	}
	rrs := make([]*roundRobin, world)
	for r := 0; r < world; r++ {
		gs := make([]ProcessGroup, sub)
		for i := range gs {
			gs[i] = subs[i][r]
		}
		rr, err := NewRoundRobin(gs...)
		if err != nil {
			t.Fatal(err)
		}
		rrs[r] = rr
	}
	return rrs
}

// TestRoundRobinAbortUnblocksCollective: rank 0 submits an AllReduce
// its peer never matches — the paper's Section 7 deadlock. Abort must
// free it with an error instead of letting it block forever.
func TestRoundRobinAbortUnblocksCollective(t *testing.T) {
	rrs := newRoundRobins(t, 2, 2)
	defer rrs[1].Close()

	w := rrs[0].AllReduce([]float32{1, 2, 3}, Sum)
	errCh := make(chan error, 1)
	go func() { errCh <- w.Wait() }()
	time.Sleep(20 * time.Millisecond) // let it block inside the collective

	if err := rrs[0].Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("aborted collective completed without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock the collective")
	}
	// Elastic teardown calls Close after Abort; it must be a no-op.
	if err := rrs[0].Close(); err != nil {
		t.Fatalf("Close after Abort: %v", err)
	}
}

// TestRoundRobinIdempotentShutdown: repeated and interleaved
// Close/Abort calls are safe, and post-shutdown submissions fail fast
// with ErrClosed rather than panicking or hanging.
func TestRoundRobinIdempotentShutdown(t *testing.T) {
	rrs := newRoundRobins(t, 2, 3)
	defer rrs[1].Close()

	rr := rrs[0]
	if err := rr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rr.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := rr.Abort(); err != nil {
		t.Fatalf("Abort after Close: %v", err)
	}
	if err := rr.AllReduce([]float32{1}, Sum).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("AllReduce after Close = %v, want ErrClosed", err)
	}
	if err := rr.Broadcast([]float32{1}, 0).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Broadcast after Close = %v, want ErrClosed", err)
	}
	if err := rr.Barrier().Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Barrier after Close = %v, want ErrClosed", err)
	}

	// Concurrent shutdown from many goroutines must not double-close
	// anything (the worker channel close would panic).
	rr2 := rrs[1]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_ = rr2.Close()
			} else {
				_ = rr2.Abort()
			}
		}(i)
	}
	wg.Wait()
}

// TestRoundRobinBarrierSurfacesSubGroupError: a failing sub-group must
// be reported deterministically — lowest failing index, annotated —
// not whichever worker goroutine errors first.
func TestRoundRobinBarrierSurfacesSubGroupError(t *testing.T) {
	a := NewInProcGroups(1, Options{})
	b := NewInProcGroups(1, Options{})
	rr, err := NewRoundRobin(a[0], b[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()

	// Healthy barrier first.
	if err := rr.Barrier().Wait(); err != nil {
		t.Fatalf("healthy barrier: %v", err)
	}

	// Kill sub-group 1 underneath the wrapper.
	if err := b[0].Close(); err != nil {
		t.Fatal(err)
	}
	werr := rr.Barrier().Wait()
	if werr == nil {
		t.Fatal("barrier over a closed sub-group reported success")
	}
	if !errors.Is(werr, ErrClosed) {
		t.Fatalf("barrier error = %v, want to wrap ErrClosed", werr)
	}
	if !strings.Contains(werr.Error(), "sub-group 1") {
		t.Fatalf("barrier error %q does not name the failing sub-group", werr)
	}
}

// buildTCPGroups constructs a world of TCP-connected groups through a
// freshly served store, one goroutine per "process".
func buildTCPGroups(t *testing.T, world int, name string) []ProcessGroup {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := store.ServeTCP(ln, 10*time.Second)
	t.Cleanup(func() { srv.Close() })
	groups := make([]ProcessGroup, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			client, err := store.DialTCP(ln.Addr().String())
			if err != nil {
				errs[rank] = err
				return
			}
			groups[rank], errs[rank] = NewTCPGroup(rank, world, client, name, Options{})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return groups
}

// TestTCPGroupAbortUnblocksAllReduce: over real TCP, an AllReduce
// blocked on a peer that never submits must be freed by AbortGroup with
// an error wrapping transport.ErrAborted.
func TestTCPGroupAbortUnblocksAllReduce(t *testing.T) {
	groups := buildTCPGroups(t, 2, "abort-test")
	defer groups[1].Close()

	w := groups[0].AllReduce([]float32{1, 2, 3, 4}, Sum)
	errCh := make(chan error, 1)
	go func() { errCh <- w.Wait() }()
	time.Sleep(30 * time.Millisecond)

	if err := AbortGroup(groups[0]); err != nil {
		t.Fatalf("AbortGroup: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, transport.ErrAborted) {
			t.Fatalf("aborted AllReduce error = %v, want to wrap transport.ErrAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AbortGroup did not unblock the TCP AllReduce")
	}
}

// TestTCPGroupPeerDeathUnblocksSurvivor: the surviving rank is blocked
// mid-collective when its peer dies (abrupt connection teardown). The
// survivor must get an error promptly — not hang until some timeout.
func TestTCPGroupPeerDeathUnblocksSurvivor(t *testing.T) {
	groups := buildTCPGroups(t, 2, "death-test")

	w := groups[0].AllReduce([]float32{1, 2}, Sum)
	errCh := make(chan error, 1)
	go func() { errCh <- w.Wait() }()
	time.Sleep(30 * time.Millisecond)

	// Rank 1 "dies": its group is aborted without ever submitting the
	// matching collective, which closes its side of every connection —
	// exactly what the OS does when the process is SIGKILLed.
	if err := AbortGroup(groups[1]); err != nil {
		t.Fatalf("peer abort: %v", err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("survivor's collective completed despite dead peer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer death left the survivor blocked")
	}
	if err := groups[0].Close(); err != nil {
		t.Logf("survivor close after peer death: %v", err)
	}
}
