package transport

import (
	"errors"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

func TestInProcSendRecv(t *testing.T) {
	meshes := NewInProcMeshes(2)
	go func() {
		meshes[0].Send(1, 7, []float32{1, 2, 3})
	}()
	got, err := meshes[1].Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestInProcSendCopies(t *testing.T) {
	meshes := NewInProcMeshes(2)
	buf := []float32{1}
	meshes[0].Send(1, 0, buf)
	buf[0] = 99
	got, _ := meshes[1].Recv(0, 0)
	if got[0] != 1 {
		t.Fatal("Send must copy data")
	}
}

func TestInProcTagMismatch(t *testing.T) {
	meshes := NewInProcMeshes(2)
	meshes[0].Send(1, 1, []float32{1})
	_, err := meshes[1].Recv(0, 2)
	var tm *tagMismatchError
	if !errors.As(err, &tm) {
		t.Fatalf("err = %v, want tagMismatchError", err)
	}
	if tm.Want != 2 || tm.Got != 1 || tm.From != 0 {
		t.Fatalf("mismatch detail %+v", tm)
	}
}

func TestInProcInvalidPeers(t *testing.T) {
	meshes := NewInProcMeshes(2)
	if err := meshes[0].Send(0, 0, nil); err == nil {
		t.Fatal("self-send must fail")
	}
	if err := meshes[0].Send(5, 0, nil); err == nil {
		t.Fatal("out-of-range send must fail")
	}
	if _, err := meshes[0].Recv(0, 0); err == nil {
		t.Fatal("self-recv must fail")
	}
}

func TestInProcFIFOPerPeer(t *testing.T) {
	meshes := NewInProcMeshes(2)
	for i := 0; i < 10; i++ {
		meshes[0].Send(1, uint64(i), []float32{float32(i)})
	}
	for i := 0; i < 10; i++ {
		got, err := meshes[1].Recv(0, uint64(i))
		if err != nil || got[0] != float32(i) {
			t.Fatalf("message %d: %v, %v", i, got, err)
		}
	}
}

func TestInProcManyRanksExchange(t *testing.T) {
	const n = 5
	meshes := NewInProcMeshes(n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// Everyone sends its rank to everyone, then receives all.
			for to := 0; to < n; to++ {
				if to != rank {
					if err := meshes[rank].Send(to, 42, []float32{float32(rank)}); err != nil {
						errs <- err
						return
					}
				}
			}
			for from := 0; from < n; from++ {
				if from == rank {
					continue
				}
				got, err := meshes[rank].Recv(from, 42)
				if err != nil || got[0] != float32(from) {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func buildTCPMeshes(t *testing.T, world int) []Mesh {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := store.ServeTCP(ln, 10*time.Second)
	t.Cleanup(func() { srv.Close() })

	meshes := make([]Mesh, world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			client, err := store.DialTCP(ln.Addr().String())
			if err != nil {
				errs[rank] = err
				return
			}
			m, err := NewTCPMesh(rank, world, client, "test")
			if err != nil {
				errs[rank] = err
				return
			}
			meshes[rank] = m
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}

func TestTCPMeshPairwise(t *testing.T) {
	meshes := buildTCPMeshes(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for to := 0; to < 3; to++ {
				if to == rank {
					continue
				}
				if err := meshes[rank].Send(to, 9, []float32{float32(rank * 10)}); err != nil {
					errs <- err
					return
				}
			}
			for from := 0; from < 3; from++ {
				if from == rank {
					continue
				}
				got, err := meshes[rank].Recv(from, 9)
				if err != nil {
					errs <- err
					return
				}
				if got[0] != float32(from*10) {
					errs <- errors.New("wrong payload")
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPMeshLargePayload(t *testing.T) {
	meshes := buildTCPMeshes(t, 2)
	payload := make([]float32, 100_000)
	for i := range payload {
		payload[i] = float32(i)
	}
	done := make(chan error, 1)
	go func() { done <- meshes[0].Send(1, 3, payload) }()
	got, err := meshes[1].Recv(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) || got[99_999] != 99_999 {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPMeshWorldOfOne(t *testing.T) {
	m, err := NewTCPMesh(0, 1, store.NewInMem(time.Second), "solo")
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1 || m.Rank() != 0 {
		t.Fatal("singleton mesh wrong")
	}
	m.Close()
}

// ---- TCP fault paths -------------------------------------------------------

// TestTCPMeshAbortUnblocksRecv: a rank blocked in Recv on a peer that
// never sends (the Section 7 deadlock) must be freed by Abort with an
// error wrapping ErrAborted.
func TestTCPMeshAbortUnblocksRecv(t *testing.T) {
	meshes := buildTCPMeshes(t, 2)
	errCh := make(chan error, 1)
	go func() {
		_, err := meshes[0].Recv(1, 5)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let Recv park inside the read

	aborter, ok := meshes[0].(Aborter)
	if !ok {
		t.Fatal("TCP mesh does not implement Aborter")
	}
	if err := aborter.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Recv after abort = %v, want to wrap ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock Recv")
	}
	// Post-abort operations fail fast, and repeated Abort/Close are safe.
	if err := meshes[0].Send(1, 0, []float32{1}); !errors.Is(err, ErrAborted) {
		t.Fatalf("Send after abort = %v, want ErrAborted", err)
	}
	if err := aborter.Abort(); err != nil {
		t.Fatalf("double Abort: %v", err)
	}
	if err := meshes[0].Close(); err != nil {
		t.Fatalf("Close after Abort: %v", err)
	}
}

// TestTCPMeshPeerDeathUnblocksRecv: the peer vanishes (its connections
// are torn down, as the OS does for a SIGKILLed process) while this
// rank is blocked receiving from it. The survivor must get an error,
// not hang.
func TestTCPMeshPeerDeathUnblocksRecv(t *testing.T) {
	meshes := buildTCPMeshes(t, 2)
	errCh := make(chan error, 1)
	go func() {
		_, err := meshes[0].Recv(1, 5)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	meshes[1].Close() // abrupt death of the peer
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv from a dead peer reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer death left Recv blocked")
	}
}

// TestTCPMeshTagMismatchAfterDesync: over real TCP, a frame carrying
// the wrong tag (two ranks disagreeing about which collective is in
// flight) surfaces as tagMismatchError rather than corrupt data.
func TestTCPMeshTagMismatchAfterDesync(t *testing.T) {
	meshes := buildTCPMeshes(t, 2)
	if err := meshes[0].Send(1, 7, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	_, err := meshes[1].Recv(0, 8)
	var tm *tagMismatchError
	if !errors.As(err, &tm) {
		t.Fatalf("err = %v, want tagMismatchError", err)
	}
	if tm.From != 0 || tm.Want != 8 || tm.Got != 7 {
		t.Fatalf("mismatch detail %+v", tm)
	}
}

// TestTCPMeshBuildAbortReleasesResources is the "worker dies between
// seal and mesh build" scenario: two of three ranks start building, the
// third never arrives. Closing cancel must (a) unblock both builders
// promptly with ErrAborted, (b) release their listeners, and (c)
// delete their address keys from the store.
func TestTCPMeshBuildAbortReleasesResources(t *testing.T) {
	st := store.NewInMem(30 * time.Second)
	defer st.Close()
	cancel := make(chan struct{})

	errs := make(chan error, 2)
	for _, rank := range []int{0, 1} {
		go func(rank int) {
			_, err := NewTCPMeshCancel(rank, 3, st, "partial", cancel)
			errs <- err
		}(rank)
	}

	// Rank 0 and 1 have published their addresses and are now parked:
	// rank 0 accepting (expects ranks 1 AND 2), rank 1 accepting rank 2.
	addr0, err := st.Get("partial/addr/0")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(cancel)

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("builder %d returned %v, want to wrap ErrAborted", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled mesh build did not unblock")
		}
	}

	// Listener released: dialing the published address must fail.
	if conn, err := net.Dial("tcp", string(addr0)); err == nil {
		conn.Close()
		t.Fatal("rank 0's listener still accepting after aborted build")
	}
	// Store keys released: a CAS with old==nil succeeds only on a
	// missing key.
	for _, rank := range []int{0, 1} {
		key := "partial/addr/" + strconv.Itoa(rank)
		if swapped, err := st.CompareAndSwap(key, nil, []byte("probe")); err != nil || !swapped {
			t.Fatalf("rank %d's address key survived the aborted build (swapped=%v, err=%v)", rank, swapped, err)
		}
	}
}

// TestTCPMeshBuildAbortDuringRendezvousGet: rank 1 blocks in store.Get
// for rank 0's address, which is never published. Cancellation must cut
// through the blocking store read itself.
func TestTCPMeshBuildAbortDuringRendezvousGet(t *testing.T) {
	st := store.NewInMem(30 * time.Second)
	defer st.Close()
	cancel := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := NewTCPMeshCancel(1, 2, st, "lonely", cancel)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want to wrap ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not cut through the rendezvous Get")
	}
}

// TestTCPMeshCloseReleasesStoreKey: an orderly Close also removes the
// rank's address key so long-lived jobs do not leak one key per mesh
// generation.
func TestTCPMeshCloseReleasesStoreKey(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := store.ServeTCP(ln, 10*time.Second)
	defer srv.Close()
	meshes := buildTCPMeshesOn(t, ln.Addr().String(), 2, "closing")
	for _, m := range meshes {
		m.Close()
	}
	client, err := store.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, rank := range []int{0, 1} {
		key := "closing/addr/" + strconv.Itoa(rank)
		if swapped, err := client.CompareAndSwap(key, nil, []byte("probe")); err != nil || !swapped {
			t.Fatalf("rank %d's address key survived Close (swapped=%v, err=%v)", rank, swapped, err)
		}
	}
}

// buildTCPMeshesOn is buildTCPMeshes against an existing store server
// and prefix (no cleanup of the meshes themselves).
func buildTCPMeshesOn(t *testing.T, addr string, world int, prefix string) []Mesh {
	t.Helper()
	meshes := make([]Mesh, world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			client, err := store.DialTCP(addr)
			if err != nil {
				errs[rank] = err
				return
			}
			meshes[rank], errs[rank] = NewTCPMesh(rank, world, client, prefix)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return meshes
}
