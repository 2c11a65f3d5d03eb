package elastic

import (
	"fmt"

	"repro/internal/comm"
)

// assignment returns the agent's current (generation, rank, world), or
// nil before the first rendezvous.
func (a *Agent) assignment() *Assignment {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.assign
}

// isFlagged reports the detector's current verdict.
func (s *StragglerDetector) isFlagged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flagged
}

// algoBuilder is InProcBuilder running every generation's group on one
// algorithm instead of the default.
type algoBuilder struct {
	reg  *comm.InProcRegistry
	algo comm.Algorithm
}

func (b *algoBuilder) Build(a *Assignment, _ <-chan struct{}) (comm.ProcessGroup, error) {
	return b.reg.Build(fmt.Sprintf("elastic-g%d", a.Generation), a.Rank, a.World, topologyOptions(comm.Options{Algorithm: b.algo}, a))
}
