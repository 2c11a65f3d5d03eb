package main

import "testing"

// TestParameterAveragingDrifts holds the example to what it prints: the
// DDP replicas end identical, and the parameter-averaging fleet, from
// the same initial weights on the same data, ends away from them.
func TestParameterAveragingDrifts(t *testing.T) {
	identical, maxDiff := compare()
	if !identical {
		t.Error("DDP replicas differ")
	}
	if maxDiff < 1e-2 {
		t.Errorf("max |gradient-sync - parameter-averaging| = %v, want the fleets apart (at least 1e-2)", maxDiff)
	}
}
