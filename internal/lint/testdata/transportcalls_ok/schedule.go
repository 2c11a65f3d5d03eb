// Package comm is clean under transportcalls: only schedule.go reaches
// the transport, and a method of comm's own that is called Send is not
// the transport's.
package comm

import "repro/internal/transport"

func runSteps(m transport.Mesh, bm transport.ByteMesh, buf []float32, raw []byte) error {
	if err := m.Send(1, 7, buf); err != nil {
		return err
	}
	if err := bm.SendBytes(1, 8, raw); err != nil {
		return err
	}
	send := m.Send
	return send(1, 9, buf)
}
