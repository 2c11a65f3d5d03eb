package store

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startServer spins up a TCP store and n clients, tearing all down
// with the test.
func startServer(t *testing.T, timeout time.Duration, n int) (*tcpServer, []*tcpClient) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	srv := ServeTCP(ln, timeout)
	t.Cleanup(func() { srv.Close() })
	clients := make([]*tcpClient, n)
	for i := range clients {
		c, err := DialTCP(ln.Addr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return srv, clients
}

// TestTCPStoreConcurrentAdd is the rank-assignment contract the
// elastic rendezvous depends on: many clients hammering one counter
// must each observe a unique ordinal and the final total must be
// exact.
func TestTCPStoreConcurrentAdd(t *testing.T) {
	const (
		clients = 8
		perC    = 25
	)
	_, cs := startServer(t, 5*time.Second, clients)

	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *tcpClient) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				v, err := c.Add("ordinal", 1)
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("ordinal %d handed out twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	final, err := cs[0].Add("ordinal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if final != clients*perC {
		t.Fatalf("final counter %d, want %d", final, clients*perC)
	}
}

// TestTCPStoreConcurrentWait: many clients block in Get on missing
// keys while another client fills them in; everyone must wake, and
// waits on one connection must not stall traffic on others.
func TestTCPStoreConcurrentWait(t *testing.T) {
	const waiters = 6
	_, cs := startServer(t, 5*time.Second, waiters+1)

	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, k := range []string{"a", "b", fmt.Sprintf("k%d", i)} {
				if _, err := cs[i].Get(k); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	writer := cs[waiters]
	// While the waiters are parked, the writer's connection stays live.
	for i := 0; i < waiters; i++ {
		if err := writer.Set(fmt.Sprintf("k%d", i), []byte{1}); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	if err := writer.Set("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Set("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
}

func TestTCPStoreWaitTimeout(t *testing.T) {
	_, cs := startServer(t, 50*time.Millisecond, 1)
	start := time.Now()
	_, err := cs[0].Get("never-set")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("returned after %v, before the deadline", elapsed)
	}
}

func TestTCPStoreDeleteAndCAS(t *testing.T) {
	_, cs := startServer(t, 2*time.Second, 2)
	a, b := cs[0], cs[1]

	// CAS with old=nil creates the key exactly once across clients.
	ok, err := a.CompareAndSwap("gen", nil, []byte("0"))
	if err != nil || !ok {
		t.Fatalf("initial cas: ok=%v err=%v", ok, err)
	}
	ok, err = b.CompareAndSwap("gen", nil, []byte("0"))
	if err != nil || ok {
		t.Fatalf("second create should lose: ok=%v err=%v", ok, err)
	}

	// The generation fence: of two compare-and-swaps from the same
	// observed value, exactly one wins.
	okA, err := a.CompareAndSwap("gen", []byte("0"), []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	okB, err := b.CompareAndSwap("gen", []byte("0"), []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	if okA == okB {
		t.Fatalf("want exactly one winner, got A=%v B=%v", okA, okB)
	}
	v, err := a.Get("gen")
	if err != nil || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("gen=%q err=%v", v, err)
	}

	if err := a.Delete("gen"); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete("gen"); err != nil {
		t.Fatalf("deleting a missing key should be a no-op: %v", err)
	}
	ok, err = b.CompareAndSwap("gen", nil, []byte("5"))
	if err != nil || !ok {
		t.Fatalf("create after delete: ok=%v err=%v", ok, err)
	}
}

// TestTCPStoreWatch: a watch parked on one client must see another
// client's update, and must NOT block the watching client's own
// concurrent operations (it runs on a dedicated connection).
func TestTCPStoreWatch(t *testing.T) {
	_, cs := startServer(t, 5*time.Second, 2)
	watcher, writer := cs[0], cs[1]

	if err := writer.Set("gen", []byte("3")); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	werr := make(chan error, 1)
	go func() {
		v, err := watcher.Watch("gen", []byte("3"))
		werr <- err
		got <- v
	}()

	// The watcher's main connection stays responsive while the watch
	// is parked server-side.
	time.Sleep(20 * time.Millisecond)
	if _, err := watcher.Add("unrelated", 1); err != nil {
		t.Fatalf("watch blocked the client connection: %v", err)
	}
	select {
	case err := <-werr:
		t.Fatalf("watch returned early: %v", err)
	default:
	}

	if err := writer.Set("gen", []byte("4")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		if v := <-got; !bytes.Equal(v, []byte("4")) {
			t.Fatalf("watch returned %q, want 4", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not wake on change")
	}
}

func TestInMemDeleteCASWatch(t *testing.T) {
	s := NewInMem(time.Second)
	defer s.Close()

	if ok, _ := s.CompareAndSwap("k", nil, []byte("a")); !ok {
		t.Fatal("create failed")
	}
	if ok, _ := s.CompareAndSwap("k", []byte("wrong"), []byte("b")); ok {
		t.Fatal("cas with stale old should fail")
	}
	if ok, _ := s.CompareAndSwap("k", []byte("a"), []byte("b")); !ok {
		t.Fatal("cas with correct old should win")
	}

	done := make(chan []byte, 1)
	go func() {
		v, err := s.Watch("k", []byte("b"))
		if err != nil {
			t.Errorf("watch: %v", err)
		}
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Set("k", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if v := <-done; !bytes.Equal(v, []byte("c")) {
		t.Fatalf("watch returned %q", v)
	}

	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Watch("missing", nil); err != ErrTimeout {
		t.Fatalf("watch on missing key should time out, got %v", err)
	}

	// Delete clears counter state too (rendezvous GC removes whole
	// rounds, whose count/flag keys are counters).
	if _, err := s.Add("ctr", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("ctr"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Add("ctr", 0); v != 0 {
		t.Fatalf("counter survived delete: %d", v)
	}
}

func TestTCPStoreGetCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, 30*time.Second)
	defer srv.Close()
	client, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := client.GetCancel("never", cancel)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCancel did not release on cancel")
	}

	// The client's shared connection must remain usable: the cancelled
	// Get ran on its own side connection.
	if err := client.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := client.GetCancel("k", make(chan struct{}))
	if err != nil || string(v) != "v" {
		t.Fatalf("GetCancel after cancel = %q, %v", v, err)
	}
}
