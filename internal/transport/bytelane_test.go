package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// byteLaneMeshes builds a 3-rank mesh set per transport for the lane
// tests.
func byteLaneMeshes(t *testing.T, tr string) []Mesh {
	t.Helper()
	const world = 3
	switch tr {
	case "inproc":
		return NewInProcMeshes(world)
	case "tcp":
		st := store.NewInMem(10 * time.Second)
		t.Cleanup(func() { st.Close() })
		meshes := make([]Mesh, world)
		errs := make([]error, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				meshes[r], errs[r] = NewTCPMesh(r, world, st, "bytelane")
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("mesh rank %d: %v", r, err)
			}
		}
		t.Cleanup(func() {
			for _, m := range meshes {
				m.Close()
			}
		})
		return meshes
	default:
		t.Fatalf("unknown transport %q", tr)
		return nil
	}
}

func TestByteLaneRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0xff},
		[]byte("seven bytes etc that are not a multiple of four"),
		bytes.Repeat([]byte{1, 2, 3}, 1000),
	}
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			meshes := byteLaneMeshes(t, tr)
			bm0, ok := ByteLanes(meshes[0])
			if !ok {
				t.Fatalf("%s mesh reports no byte lanes", tr)
			}
			bm1, _ := ByteLanes(meshes[1])
			for tag, want := range payloads {
				errc := make(chan error, 1)
				go func(tag int, p []byte) {
					errc <- bm0.SendBytes(1, uint64(tag), p)
				}(tag, want)
				got, err := bm1.RecvBytes(0, uint64(tag))
				if err != nil {
					t.Fatalf("recv tag %d: %v", tag, err)
				}
				if err := <-errc; err != nil {
					t.Fatalf("send tag %d: %v", tag, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("tag %d: got %d bytes, want %d", tag, len(got), len(want))
				}
			}
		})
	}
}

// TestByteLaneInterleavesWithFloatFrames: both lanes share one link's
// FIFO, so alternating frame kinds must arrive in order on the right
// lane.
func TestByteLaneInterleavesWithFloatFrames(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			meshes := byteLaneMeshes(t, tr)
			bm0, _ := ByteLanes(meshes[0])
			bm1, _ := ByteLanes(meshes[1])
			go func() {
				for tag := uint64(0); tag < 6; tag += 2 {
					bm0.SendBytes(1, tag, []byte{byte(tag)})
					meshes[0].Send(1, tag+1, []float32{float32(tag)})
				}
			}()
			for tag := uint64(0); tag < 6; tag += 2 {
				raw, err := bm1.RecvBytes(0, tag)
				if err != nil || len(raw) != 1 || raw[0] != byte(tag) {
					t.Fatalf("byte frame tag %d: %v %v", tag, raw, err)
				}
				floats, err := meshes[1].Recv(0, tag+1)
				if err != nil || len(floats) != 1 || floats[0] != float32(tag) {
					t.Fatalf("float frame tag %d: %v %v", tag+1, floats, err)
				}
			}
		})
	}
}

// TestByteLaneMismatch: expecting the wrong frame kind is a schedule
// bug and must surface as laneMismatchError, not corrupt data.
func TestByteLaneMismatch(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			meshes := byteLaneMeshes(t, tr)
			bm0, _ := ByteLanes(meshes[0])
			bm1, _ := ByteLanes(meshes[1])

			go bm0.SendBytes(1, 0, []byte{1, 2, 3})
			if _, err := meshes[1].Recv(0, 0); !errorsAsLane(err) {
				t.Fatalf("float recv of byte frame: %v", err)
			}
			go meshes[0].Send(1, 1, []float32{1})
			if _, err := bm1.RecvBytes(0, 1); !errorsAsLane(err) {
				t.Fatalf("byte recv of float frame: %v", err)
			}
		})
	}
}

func errorsAsLane(err error) bool {
	var lm *laneMismatchError
	return errors.As(err, &lm)
}

// TestByteLanesProbesTheMesh: a mesh without the byte-frame methods has
// no byte lanes, and neither has a decorator that has the methods but
// wraps such a mesh (ByteLaneProber).
func TestByteLanesProbesTheMesh(t *testing.T) {
	floatOnly := floatOnlyMesh{NewInProcMeshes(1)[0]}
	if _, ok := ByteLanes(floatOnly); ok {
		t.Fatal("a float-only mesh claims byte lanes")
	}
	if _, ok := ByteLanes(probingMesh{floatOnly}); ok {
		t.Fatal("a decorator over a float-only mesh claims byte lanes")
	}
	if _, ok := ByteLanes(probingMesh{NewInProcMeshes(1)[0]}); !ok {
		t.Fatal("a decorator over a byte-capable mesh reports no byte lanes")
	}
}

// probingMesh is the shape of a mesh decorator: it has the byte-frame
// methods whatever it wraps, and reports the wrapped mesh's capability.
type probingMesh struct{ Mesh }

func (p probingMesh) SendBytes(int, uint64, []byte) error   { return errors.New("unused") }
func (p probingMesh) RecvBytes(int, uint64) ([]byte, error) { return nil, errors.New("unused") }
func (p probingMesh) HasByteLanes() bool {
	_, ok := ByteLanes(p.Mesh)
	return ok
}

// floatOnlyMesh hides a mesh's byte lanes (simulating a transport that
// has none).
type floatOnlyMesh struct{ m Mesh }

func (f floatOnlyMesh) Rank() int { return f.m.Rank() }
func (f floatOnlyMesh) Size() int { return f.m.Size() }
func (f floatOnlyMesh) Send(to int, tag uint64, data []float32) error {
	return f.m.Send(to, tag, data)
}
func (f floatOnlyMesh) Recv(from int, tag uint64) ([]float32, error) {
	return f.m.Recv(from, tag)
}
func (f floatOnlyMesh) Close() error { return f.m.Close() }

// TestByteLaneMismatchPreservesFraming: the TCP receiver drains a
// mismatched frame's payload, so the stream stays framed and the next
// frame is still readable.
func TestByteLaneMismatchPreservesFraming(t *testing.T) {
	meshes := byteLaneMeshes(t, "tcp")
	bm0, _ := ByteLanes(meshes[0])
	bm1, _ := ByteLanes(meshes[1])
	go func() {
		bm0.SendBytes(1, 0, []byte{1, 2, 3, 4, 5})
		bm0.SendBytes(1, 1, []byte("after"))
	}()
	if _, err := meshes[1].Recv(0, 0); !errorsAsLane(err) {
		t.Fatalf("expected lane mismatch, got %v", err)
	}
	got, err := bm1.RecvBytes(0, 1)
	if err != nil || string(got) != "after" {
		t.Fatalf("frame after mismatch: %q %v", got, err)
	}
}
