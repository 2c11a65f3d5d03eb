// Package lib declares only what cmd/user uses.
package lib

import "fmt"

// Pair's fields are set by an unkeyed literal in cmd/user.
type Pair struct {
	A, B int
}

// String is asked for by fmt.Stringer, which no caller names.
func (p Pair) String() string { return fmt.Sprint(p.A, p.B) }

// Shape is the module's own interface.
type Shape interface{ Area() int }

// Square meets Shape.
type Square struct{ Side int }

// Area is called through Shape only.
func (s Square) Area() int { return s.Side * s.Side }

// Total sums the shapes' areas.
func Total(shapes ...Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}
