package elastic

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeamReachesNoStrategy: this package drives replica.Replica and
// must never name a strategy, directly or through any package its
// non-test code imports. Reaching ddp, fsdp or strategy (whose Build
// names both) is how the per-strategy fork would grow back.
func TestSeamReachesNoStrategy(t *testing.T) {
	const self = "repro/internal/elastic"
	banned := map[string]bool{"repro/internal/ddp": true, "repro/internal/fsdp": true, "repro/internal/strategy": true}
	via := map[string]string{self: ""} // each module package reached, from the one that imports it
	for queue := []string{self}; len(queue) > 0; queue = queue[1:] {
		path := queue[0]
		if banned[path] {
			chain := path
			for p := via[path]; p != ""; p = via[p] {
				chain = p + " → " + chain
			}
			t.Errorf("internal/elastic reaches a strategy: %s", chain)
			continue
		}
		pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, "repro/")), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if _, seen := via[imp]; !seen && strings.HasPrefix(imp, "repro/") {
				via[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	if len(via) < 5 {
		t.Fatalf("walked only %d packages from %s; is the walk reading the tree?", len(via), self)
	}
}
