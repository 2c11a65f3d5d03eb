package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// The shaped link: 1 ms one-way latency and 400 MB/s per directed link.
// time.Sleep below about 1 ms takes about 1.15 ms on the reference box
// and overshoots longer sleeps by about 0.2 ms, which is why the
// latency is not smaller. The receiver sleeps and never spins: a
// spinning rank would steal one of the two cores from compute.
const (
	linkLatency   = time.Millisecond
	linkBandwidth = 400e6 // bytes per second
)

// transferTime is how long n payload bytes occupy a directed link.
func transferTime(n int) time.Duration {
	return time.Duration(float64(n) / linkBandwidth * float64(time.Second))
}

// linkState is one directed link's clock, shared by the sender's and the
// receiver's view of the mesh.
type linkState struct {
	// mu orders stamps with the inner sends, so the k-th stamp belongs
	// to the k-th frame the inner mesh delivers. It is held across the
	// inner Send on purpose: two senders on one link are serialised,
	// which is what a link does.
	mu     sync.Mutex
	freeAt time.Time
	// due carries each frame's delivery time to the receiver in FIFO
	// order. The in-proc mesh buffers 128 frames per link, so at most
	// 129 stamps are outstanding.
	due chan time.Time
}

// holdObserver receives every receiver-side wait for a frame's delivery
// time; the traced run turns them into link.hold spans.
type holdObserver func(tag uint64, start, end time.Time)

// shapedMesh decorates a mesh with a bandwidth- and latency-bound link
// model. Send stamps the frame's delivery time and returns; Recv sleeps
// until that time after the inner receive. It embeds transport.Mesh so
// methods later added to the interface promote unchanged.
type shapedMesh struct {
	transport.Mesh
	bytes  transport.ByteMesh
	links  [][]*linkState // links[from][to]
	onHold holdObserver

	framesSent, bytesSent atomic.Int64
}

// newShapedMeshes wraps every rank's view of one mesh with a shared set
// of link clocks.
func newShapedMeshes(inner []transport.Mesh) []*shapedMesh {
	n := len(inner)
	links := make([][]*linkState, n)
	for i := range links {
		links[i] = make([]*linkState, n)
		for j := range links[i] {
			if i != j {
				links[i][j] = &linkState{due: make(chan time.Time, 256)}
			}
		}
	}
	out := make([]*shapedMesh, n)
	for r, m := range inner {
		bm, _ := transport.ByteLanes(m)
		out[r] = &shapedMesh{Mesh: m, bytes: bm, links: links}
	}
	return out
}

// HasByteLanes forwards the inner mesh's byte-lane capability
// (transport.ByteLaneProber), so compressed collectives keep shipping
// real bytes through the decorator.
func (m *shapedMesh) HasByteLanes() bool { return m.bytes != nil }

func (m *shapedMesh) stampAndSend(to, n int, send func() error) error {
	l := m.links[m.Rank()][to]
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.freeAt.After(start) {
		start = l.freeAt
	}
	// A frame the inner mesh refused occupies no link time and leaves no
	// stamp, or every later frame would be held against the wrong one.
	if err := send(); err != nil {
		return err
	}
	l.freeAt = start.Add(transferTime(n))
	l.due <- l.freeAt.Add(linkLatency)
	m.framesSent.Add(1)
	m.bytesSent.Add(int64(n))
	return nil
}

func (m *shapedMesh) hold(from int, tag uint64) {
	due := <-m.links[from][m.Rank()].due
	start := time.Now()
	if d := due.Sub(start); d > 0 {
		time.Sleep(d)
	}
	if m.onHold != nil {
		m.onHold(tag, start, time.Now())
	}
}

func (m *shapedMesh) Send(to int, tag uint64, data []float32) error {
	return m.stampAndSend(to, 4*len(data), func() error { return m.Mesh.Send(to, tag, data) })
}

func (m *shapedMesh) Recv(from int, tag uint64) ([]float32, error) {
	data, err := m.Mesh.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	m.hold(from, tag)
	return data, nil
}

func (m *shapedMesh) SendBytes(to int, tag uint64, data []byte) error {
	return m.stampAndSend(to, len(data), func() error { return m.bytes.SendBytes(to, tag, data) })
}

func (m *shapedMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	data, err := m.bytes.RecvBytes(from, tag)
	if err != nil {
		return nil, err
	}
	m.hold(from, tag)
	return data, nil
}

var (
	_ transport.ByteMesh       = (*shapedMesh)(nil)
	_ transport.ByteLaneProber = (*shapedMesh)(nil)
)
