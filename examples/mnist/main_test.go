package main

import "testing"

// TestBothArmsConverge holds the example to what it prints, on a shorter
// run: with every iteration synchronized and with four-step
// accumulation, the replicas end identical and the loss falls.
func TestBothArmsConverge(t *testing.T) {
	for _, syncEvery := range []int{1, 4} {
		a := train(syncEvery, 12)
		if !a.identical {
			t.Errorf("sync every %d: replicas differ", syncEvery)
		}
		if a.finalLoss >= a.firstLoss {
			t.Errorf("sync every %d: loss %v -> %v, want it falling", syncEvery, a.firstLoss, a.finalLoss)
		}
	}
}
