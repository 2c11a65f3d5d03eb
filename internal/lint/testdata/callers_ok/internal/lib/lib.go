// Package lib declares only what cmd/ddpbench uses.
package lib

// Pair's fields are set by an unkeyed literal in cmd/ddpbench.
type Pair struct {
	A, B int
}
