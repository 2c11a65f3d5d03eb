package main

import (
	"testing"

	"repro/internal/replica"
)

// TestActiveReplicasAgree holds the example to what it prints: after
// the scale-down and the scale-up, every active worker ends on the one
// hash of the run's trajectory.
func TestActiveReplicasAgree(t *testing.T) {
	const want = 0x5bc48e03a26504f6
	active, _ := run()
	for _, w := range active {
		if got := replica.Hash(w.model.Parameters()); got != want {
			t.Errorf("%s ended on hash %016x, want %016x", w.name, got, uint64(want))
		}
	}
}
