// Package lib declares only what cmd/user uses.
package lib

// Pair's fields are set by an unkeyed literal in cmd/user.
type Pair struct {
	A, B int
}
