package main

import "testing"

// TestRanksEndIdentical holds the example to what it prints: every rank
// ends on rank 0's parameters, bit for bit.
func TestRanksEndIdentical(t *testing.T) {
	hashes := run()
	for rank, h := range hashes {
		if h != hashes[0] {
			t.Errorf("rank %d ended on hash %016x, rank 0 on %016x", rank, h, hashes[0])
		}
	}
}
