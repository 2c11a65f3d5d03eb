// Package fixture documents everything it exports.
package fixture

// Documented has a doc comment.
func Documented() {}

// Group's comment documents its members.
const (
	A = 1
	B = 2
)

// Types documents the group.
type (
	U int
	V int
)

// G is generic.
type G[E any] struct{ e E }

// Get is documented.
func (g *G[E]) Get() E { return g.e }

func (g *G[E]) set(e E) { g.e = e }
