// Package lib declares what the callers rule judges: its only non-test
// reader is cmd/user.
package lib

// Opts has a field the user sets and one nothing sets.
type Opts struct {
	Set   int
	Unset int //lint:want callers
}

// TestingHook is a test-only knob that non-test code reads.
var TestingHook func() //lint:want callers

// Run reads the knob.
func Run() {
	if TestingHook != nil { //lint:want callers
		TestingHook() //lint:want callers
	}
}
