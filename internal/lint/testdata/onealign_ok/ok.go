// Package elastic is clean under onealign: it broadcasts flat vectors
// and a variable that is no parameter, and reads parameters without
// broadcasting them.
package elastic

import (
	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
)

// caster has a Broadcast of its own, which is not comm's.
type caster struct{}

func (caster) Broadcast(data []float32, root int) {}

func sync(pg comm.ProcessGroup, state []float32, v *autograd.Variable, params []*nn.Parameter) error {
	if err := pg.Broadcast(state, 0).Wait(); err != nil {
		return err
	}
	if err := pg.Broadcast(v.Value.Data(), 0).Wait(); err != nil {
		return err
	}
	var c caster
	for _, p := range params {
		c.Broadcast(p.Value.Data(), 0)
	}
	return nil
}
