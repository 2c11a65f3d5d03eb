package main

import "testing"

// TestShardedOptimizerIsFree holds the example to what it prints: the
// two arms end on the same weights, and the ZeRO shard of the momentum
// state is a quarter of DDP's at world 4.
func TestShardedOptimizerIsFree(t *testing.T) {
	maxDiff, ddpBytes, zeroBytes := compare()
	if maxDiff != 0 {
		t.Errorf("max |DDP - ZeRO| = %v, want 0", maxDiff)
	}
	if ddpBytes != 8216 || zeroBytes != 2056 {
		t.Errorf("optimizer state per rank: DDP %d B, ZeRO shard %d B; want 8216 and 2056", ddpBytes, zeroBytes)
	}
}
