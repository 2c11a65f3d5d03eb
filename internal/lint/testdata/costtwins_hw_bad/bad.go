// Package hw seeds costtwins violations in a cost model: methods named
// after an algorithm, declared on its types or promoted into them.
package hw

import "repro/internal/comm"

type Cluster struct{ Alpha float64 }

func (c Cluster) AllReduceSeconds(n int) float64 { return c.Alpha * float64(n) }

func (c Cluster) TreeAllReduceSeconds(n int) float64 { return c.Alpha * float64(n) } //lint:want costtwins

func (c *Cluster) doubleTreeSeconds() float64 { return c.Alpha } //lint:want costtwins

// An embedded field brings in comm.Topology's Hierarchical, a method no
// "func (recv) name" line of this package declares.
type topoCluster struct { //lint:want costtwins
	*comm.Topology
}
