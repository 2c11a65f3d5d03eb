package comm

import "repro/internal/transport"

type group struct {
	m  transport.Mesh
	bm transport.ByteMesh
}

// A private loop in a second file: what the grep caught.
func (g *group) ring(buf []float32) error {
	return g.m.Send(1, 3, buf) //lint:want transportcalls
}

// A method value taken here and called later: what the grep passed.
func (g *group) later() func(int, uint64, []float32) error {
	send := g.m.Send //lint:want transportcalls
	return send
}

// A method expression of the byte lane.
var recvBytes = transport.ByteMesh.RecvBytes //lint:want transportcalls

// Through a field of an interface type embedded in a comm type.
type wrapped struct{ transport.Mesh }

func (w wrapped) pull() ([]float32, error) {
	return w.Recv(0, 1) //lint:want transportcalls
}
