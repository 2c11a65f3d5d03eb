// Package elastic seeds onealign violations: a module's parameters or
// buffers broadcast outside internal/replica's core.go, under any
// variable name.
package elastic

import (
	"repro/internal/comm"
	"repro/internal/nn"
)

// The alignment loop, copied.
func align(pg comm.ProcessGroup, params []*nn.Parameter, buffers []*nn.Buffer) error {
	var works []comm.Work
	for _, p := range params {
		works = append(works, pg.Broadcast(p.Value.Data(), 0)) //lint:want onealign
	}
	for _, b := range buffers {
		works = append(works, pg.Broadcast(b.Data.Data(), 0)) //lint:want onealign
	}
	return comm.WaitAll(works...)
}

// Another name, a value rather than a pointer, through a concrete group.
func reseed(pg comm.ProcessGroup, param nn.Parameter, m nn.Module) error {
	g, err := comm.NewRoundRobin(pg)
	if err != nil {
		return err
	}
	if err := g.Broadcast(param.Value.Data(), 1).Wait(); err != nil { //lint:want onealign
		return err
	}
	return g.Broadcast(m.Buffers()[0].Data.Data(), 1).Wait() //lint:want onealign
}
