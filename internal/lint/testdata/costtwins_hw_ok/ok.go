// Package hw is a cost model that prices algorithms by walking comm's
// schedules, with no method named after one.
package hw

import "repro/internal/comm"

// Cluster prices collectives.
type Cluster struct{ Alpha float64 }

// AllReduceSeconds walks no schedule in the fixture; its name is what
// counts.
func (c Cluster) AllReduceSeconds(algo comm.Algorithm, n int) float64 {
	return c.Alpha * float64(n) * float64(len(algo.String()))
}

// A field that holds a topology, without promoting its methods.
type topoCluster struct {
	topo *comm.Topology
}

func (t topoCluster) multiHost() bool { return t.topo.MultiHost() }
