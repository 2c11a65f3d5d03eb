package testutil

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// Shaped is a link model for a world of meshes: every directed link
// delivers a frame Latency after it has finished sending it, and sends
// at Bandwidth bytes per second, one frame after another. The model is
// the training benchmark's shaped link, with its constants as fields.
type Shaped struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second
}

// Meshes wraps every rank's view of one world's meshes, inner[r] being
// rank r's, in the link model, each directed link with a clock of its
// own. A frame's delivery time is stamped when it is sent, in the
// order the link carries frames; the receiver takes the frame from the
// inner mesh, then sleeps until that time, and never spins, so a test
// on a small machine keeps its cores for compute. A sleep overshoots
// by the scheduler's grain, which on a loaded machine can reach a
// millisecond. The wrapped meshes carry float frames only.
func (s Shaped) Meshes(inner []transport.Mesh) []transport.Mesh {
	n := len(inner)
	links := make([][]*shapedLink, n)
	for from := range links {
		links[from] = make([]*shapedLink, n)
		for to := range links[from] {
			// The in-process mesh buffers 128 frames a link, so at most 129
			// stamps are outstanding.
			links[from][to] = &shapedLink{due: make(chan time.Time, 256)}
		}
	}
	out := make([]transport.Mesh, n)
	for r, m := range inner {
		out[r] = &shapedMesh{Mesh: m, s: s, links: links}
	}
	return out
}

// shapedLink is one directed link's clock, shared by the sender's and
// the receiver's view.
type shapedLink struct {
	// mu is held across the inner Send, so the k-th stamp is the k-th
	// frame's and two senders on one link go one after the other.
	mu     sync.Mutex
	freeAt time.Time      // when the link has sent what it was given
	due    chan time.Time // each frame's delivery time, in order
}

type shapedMesh struct {
	transport.Mesh
	s     Shaped
	links [][]*shapedLink // links[from][to]
}

func (m *shapedMesh) Send(to int, tag uint64, data []float32) error {
	l := m.links[m.Rank()][to]
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	if l.freeAt.After(start) {
		start = l.freeAt
	}
	// A frame the inner mesh refused takes no link time and leaves no
	// stamp, or every later frame would be held to the wrong one.
	if err := m.Mesh.Send(to, tag, data); err != nil {
		return err
	}
	l.freeAt = start.Add(time.Duration(float64(4*len(data)) / m.s.Bandwidth * float64(time.Second)))
	l.due <- l.freeAt.Add(m.s.Latency)
	return nil
}

func (m *shapedMesh) Recv(from int, tag uint64) ([]float32, error) {
	data, err := m.Mesh.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	if d := time.Until(<-m.links[from][m.Rank()].due); d > 0 {
		time.Sleep(d)
	}
	return data, nil
}
