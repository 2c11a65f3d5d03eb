// Package lib declares only what a root reaches.
package lib

import "fmt"

// Pair is printed by the root.
type Pair struct{ A, B int }

// String is called by fmt, through fmt.Stringer, which no root names.
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

// ForBenchmark is named only by the benchmark.
func ForBenchmark() {}

// Excused has no root; a test reads it, and what it reaches stays.
//
//ddplint:ignore reach fixture: read by a test
func Excused() int { return helper() }

func helper() int { return 1 }
