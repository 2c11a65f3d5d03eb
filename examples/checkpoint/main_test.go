package main

import (
	"testing"

	"repro/internal/replica"
)

// TestResumeIsExact holds the example to what it prints: every worker
// of the world cold-started from the checkpoint ends on the reference
// run's hash.
func TestResumeIsExact(t *testing.T) {
	const want = 0x654042dc6e8a4b21
	resumed, ref, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed {
		got, refHash := replica.Hash(resumed[i].Parameters()), replica.Hash(ref[i].Parameters())
		if got != refHash || got != want {
			t.Errorf("worker %d: resumed hash %016x, reference %016x, want both %016x", i, got, refHash, uint64(want))
		}
	}
}
