// Package lib declares what the callers rule judges: its only non-test
// reader is cmd/user.
package lib

// Used is called through an import alias.
func Used() {}

// CommentOnly is named only in a comment of cmd/user, which is no use.
func CommentOnly() {} //lint:want callers

// Opts has a field the user sets and one nothing sets.
type Opts struct {
	Set   int
	Unset int //lint:want callers
}

// Named is used, but one of its methods is not.
type Named struct{}

// Dead has no caller and no interface asks for it.
func (Named) Dead() {} //lint:want callers

// TestingHook is a test-only knob that non-test code reads.
var TestingHook func() //lint:want callers

// Run reads the knob.
func Run() {
	if TestingHook != nil { //lint:want callers
		TestingHook() //lint:want callers
	}
}

// Kept is used, so a pragma over it suppresses nothing.
//
//ddplint:ignore callers fixture: excuses a use that exists //lint:want pragma
func Kept() {}
