// Package lib declares what the reach rule judges: its only root is
// cmd/ddptrain.
package lib

import "fmt"

// Used is called by the root.
func Used() {}

// CommentOnly is named only in a comment of the root, which is no use.
func CommentOnly() {} //lint:want reach

// DeadA is named by nothing.
func DeadA() { DeadB() } //lint:want reach

// DeadB is named only by DeadA, which nothing reaches.
func DeadB() {} //lint:want reach

// Named is reached, but one of its methods is not.
type Named struct{}

// Dead has no caller and meets no interface anything calls.
func (Named) Dead() {} //lint:want reach

// Shape is called through for Area only.
type Shape interface {
	Area() int
	Perimeter() int //lint:want reach
}

// Square meets Shape.
type Square struct{ Side int }

// Area is called through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter meets Shape's method that nothing calls.
func (s Square) Perimeter() int { return 4 * s.Side } //lint:want reach

// Summary is reached but never converted to an interface, so fmt never
// calls its String.
type Summary struct{ N int }

// String would serve fmt.Stringer.
func (s Summary) String() string { return fmt.Sprint(s.N) } //lint:want reach

// Kept is reached, so a pragma over it suppresses nothing.
//
//ddplint:ignore reach fixture: excuses a use that exists //lint:want pragma
func Kept() {}
