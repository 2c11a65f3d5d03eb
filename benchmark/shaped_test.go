package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestShapedLinkFIFOAndHold sends frames of mixed sizes down one link
// and checks that they arrive in order, each no earlier than its nominal
// transfer time plus the link latency after it was sent.
func TestShapedLinkFIFOAndHold(t *testing.T) {
	meshes := newShapedMeshes(transport.NewInProcMeshes(2))
	defer meshes[0].Close()
	defer meshes[1].Close()

	sizes := []int{1, 40000, 7, 100000, 0, 2500}
	sent := make([]time.Time, len(sizes))
	done := make(chan error, 1)
	go func() {
		for i, n := range sizes {
			data := make([]float32, n)
			for j := range data {
				data[j] = float32(i)
			}
			sent[i] = time.Now() // ordered before the receiver's read by the frame itself
			if err := meshes[0].Send(1, uint64(i), data); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, n := range sizes {
		// The inner mesh checks the tag, so an out-of-order frame is an
		// error here.
		got, err := meshes[1].Recv(0, uint64(i))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != n || (n > 0 && got[0] != float32(i)) {
			t.Fatalf("frame %d: got %d elements, want %d of value %d", i, len(got), n, i)
		}
		if held, nominal := time.Since(sent[i]), transferTime(4*n)+linkLatency; held < nominal {
			t.Errorf("frame %d (%d elements) arrived after %v, before the nominal %v", i, n, held, nominal)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShapedLinkQueuesBehindBusyLink checks that a frame sent while the
// link is still occupied is delivered after the frames ahead of it have
// been transferred, not merely after its own transfer time.
func TestShapedLinkQueuesBehindBusyLink(t *testing.T) {
	meshes := newShapedMeshes(transport.NewInProcMeshes(2))
	defer meshes[0].Close()
	defer meshes[1].Close()
	const n, frames = 100000, 4 // 1 ms of link time each
	begin := time.Now()
	for i := 0; i < frames; i++ {
		if err := meshes[0].Send(1, uint64(i), make([]float32, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		if _, err := meshes[1].Recv(0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if want, got := frames*transferTime(4*n)+linkLatency, time.Since(begin); got < want {
		t.Errorf("%d back-to-back frames arrived after %v, before the link could carry them (%v)", frames, got, want)
	}
}

// TestShapedLinkForwardsByteLanes checks that the compressed
// collectives still find a working byte lane through the decorator.
func TestShapedLinkForwardsByteLanes(t *testing.T) {
	meshes := newShapedMeshes(transport.NewInProcMeshes(2))
	defer meshes[0].Close()
	defer meshes[1].Close()
	bm, ok := transport.ByteLanes(meshes[0])
	if !ok {
		t.Fatal("transport.ByteLanes reports no byte lane through the shaped mesh")
	}
	payload := []byte("half precision")
	if err := bm.SendBytes(1, 3, payload); err != nil {
		t.Fatal(err)
	}
	got, err := meshes[1].RecvBytes(0, 3)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("RecvBytes = %q, %v", got, err)
	}
}

// TestShapedLinkCountsMatchProgram checks the decorator's own byte and
// frame counts against the program's transport counters.
func TestShapedLinkCountsMatchProgram(t *testing.T) {
	meshes := newShapedMeshes(transport.NewInProcMeshes(2))
	defer meshes[0].Close()
	defer meshes[1].Close()
	c := &cluster{shaped: meshes}
	prog0, link0 := readWireCounters(), c.shapedCounts()
	for i, n := range []int{0, 3, 4096} {
		if err := meshes[0].Send(1, uint64(i), make([]float32, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := meshes[1].Recv(0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := meshes[1].SendBytes(0, 9, make([]byte, 77)); err != nil {
		t.Fatal(err)
	}
	if _, err := meshes[0].RecvBytes(1, 9); err != nil {
		t.Fatal(err)
	}
	prog, link := readWireCounters().sub(prog0), c.shapedCounts().sub(link0)
	if want := (wireCounters{bytes: 4*(3+4096) + 77, frames: 4}); link != want || prog != want {
		t.Errorf("decorator counted %+v, program %+v, want %+v", link, prog, want)
	}
}

// refusingMesh fails the sends whose tag is refuse.
type refusingMesh struct {
	transport.Mesh
	refuse uint64
}

func (m refusingMesh) Send(to int, tag uint64, data []float32) error {
	if tag == m.refuse {
		return errors.New("refused")
	}
	return m.Mesh.Send(to, tag, data)
}

// TestShapedLinkRefusedSendLeavesNoStamp checks that a frame the inner
// mesh refused occupies no link time and queues no delivery stamp: the
// next frame is held against its own delivery time, not against the
// refused frame's.
func TestShapedLinkRefusedSendLeavesNoStamp(t *testing.T) {
	inner := transport.NewInProcMeshes(2)
	inner[0] = refusingMesh{Mesh: inner[0], refuse: 1}
	meshes := newShapedMeshes(inner)
	defer meshes[0].Close()
	defer meshes[1].Close()
	const big = 2500000 // 25 ms of link time, had it been sent
	if err := meshes[0].Send(1, 1, make([]float32, big)); err == nil {
		t.Fatal("the refused send reported no error")
	}
	begin := time.Now()
	if err := meshes[0].Send(1, 2, []float32{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := meshes[1].Recv(0, 2); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(begin); held >= transferTime(4*big) {
		t.Errorf("the frame after a refused one was held %v, as if the refused frame had used the link", held)
	}
	if n := len(meshes[0].links[0][1].due); n != 0 {
		t.Errorf("%d delivery stamps left queued", n)
	}
	if f, b := meshes[0].framesSent.Load(), meshes[0].bytesSent.Load(); f != 1 || b != 4 {
		t.Errorf("counted %d frames and %d bytes, want 1 and 4", f, b)
	}
}
