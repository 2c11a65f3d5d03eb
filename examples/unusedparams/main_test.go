package main

import (
	"strings"
	"testing"
)

// TestUnusedParameters holds the example to what it prints: without
// FindUnusedParameters a sub-graph iteration fails with the error that
// names the fix; with it, every iteration LayerDrop skips leaves the
// globally unused block's gradients untouched, and the replicas end
// identical.
func TestUnusedParameters(t *testing.T) {
	if err := subGraphError(); err == nil || !strings.Contains(err.Error(), "construct DDP with FindUnusedParameters") {
		t.Errorf("sub-graph backward without FindUnusedParameters: %v, want the error that names the option", err)
	}
	r := trainWithLayerDrop()
	if r.skips[0] == 0 || r.skips != r.untouched {
		t.Errorf("skipped %v iterations, gradients untouched in %v; want some skipped, all of them untouched", r.skips, r.untouched)
	}
	if !r.identical {
		t.Error("replicas differ after LayerDrop training")
	}
}
