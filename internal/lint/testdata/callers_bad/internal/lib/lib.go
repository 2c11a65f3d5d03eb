// Package lib declares what the callers rows judge: its only root is
// cmd/ddpbench.
package lib

// Opts has a field the root sets and one nothing sets.
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

// Knob is read by the root, and set only by code no root reaches.
type Knob struct {
	Level int //lint:want callers
}

// SetKnob is Knob.Level's only setter.
func SetKnob(k *Knob) { k.Level = 1 } //lint:want reach
