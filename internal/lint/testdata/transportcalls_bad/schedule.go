// Package comm seeds transportcalls violations: the transport reached
// outside schedule.go, called or aliased.
package comm

import "repro/internal/transport"

// runSteps is the one place the mesh is reached.
func runSteps(m transport.Mesh, buf []float32) error {
	if err := m.Send(1, 7, buf); err != nil {
		return err
	}
	_, err := m.Recv(1, 7)
	return err
}
