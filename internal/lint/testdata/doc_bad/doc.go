// Package fixture declares exported identifiers without doc comments.
package fixture

func Bare() {} //lint:want doc

//go:noinline
func DirectiveOnly() {} //lint:want doc

type (
	// Grouped is documented.
	Grouped   int
	Ungrouped int //lint:want doc
)

var X, y = 1, 2 //lint:want doc

var a, B = 1, 2 //lint:want doc

const (
	C1 = 1 //lint:want doc
	// C2 is documented.
	C2 = 2
)

// T is documented; its method is not.
type T struct{}

func (T) Method() {} //lint:want doc

func (*T) PtrMethod() {} //lint:want doc

type hidden struct{}

// An exported method of an unexported type is the interface's to
// document.
func (hidden) Method() {}

func unexported() {}
