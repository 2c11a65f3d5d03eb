package testutil

import (
	"testing"
	"time"

	"repro/internal/transport"
)

// TestShapedLinkDeliversOnItsClock sends three frames of 100 KB back to
// back on an idle link of 2 ms and 10 MB/s, and one small frame the
// other way right after them. Frame k may not arrive before its send
// started plus k+1 transfers of 10 ms and the latency, and the small
// frame not before the latency. Each may arrive up to 8 ms late — a
// sleep's overshoot on a loaded machine — which is still short of the
// next frame's due time, and far short of the 32 ms a small frame held
// to the other direction's clock would take. The frames arrive whole
// and in order.
func TestShapedLinkDeliversOnItsClock(t *testing.T) {
	const (
		latency   = 2 * time.Millisecond
		bandwidth = 10e6
		elems     = 25000 // 100 KB: 10 ms on the link
		slack     = 8 * time.Millisecond
	)
	meshes := Shaped{Latency: latency, Bandwidth: bandwidth}.Meshes(transport.NewInProcMeshes(2))
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	transfer := time.Duration(4 * elems / bandwidth * float64(time.Second))
	start := time.Now()
	for k := range 3 {
		frame := make([]float32, elems)
		frame[0] = float32(k)
		if err := meshes[0].Send(1, uint64(k), frame); err != nil {
			t.Fatal(err)
		}
	}
	back := time.Now()
	if err := meshes[1].Send(0, 9, []float32{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := meshes[0].Recv(1, 9); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(back); got < latency || got > latency+slack {
		t.Fatalf("a small frame on the idle reverse link took %v, want the %v latency (slack %v)", got, latency, slack)
	}
	for k := range 3 {
		data, err := meshes[1].Recv(0, uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		got, due := time.Since(start), time.Duration(k+1)*transfer+latency
		if len(data) != elems || data[0] != float32(k) {
			t.Fatalf("frame %d arrived as %d elements starting %v", k, len(data), data[0])
		}
		if got < due || got > due+slack {
			t.Fatalf("frame %d arrived %v after the first send, due %v (slack %v)", k, got, due, slack)
		}
	}
}
