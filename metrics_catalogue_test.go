package repro_test

import (
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	// Every package that registers instruments in metrics.Default.
	_ "repro/internal/ckpt"
	_ "repro/internal/comm"
	_ "repro/internal/ddp"
	_ "repro/internal/elastic"
	_ "repro/internal/transport"

	"repro/internal/metrics"
)

// catalogue reads ARCHITECTURE.md's "Metric catalogue" table: each
// family named in a row's first cell (several are split by " / "), with
// its type, the row's type cell, or its place in a type cell split the
// same way.
func catalogue(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "### Metric catalogue\n")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "### Metric catalogue" section`)
	}
	out := map[string]string{}
	for _, line := range strings.Split(table, "\n")[3:] { // past the blank line, the header and its rule
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		names, types := strings.Split(cells[1], " / "), strings.Split(strings.TrimSpace(cells[2]), "/")
		if len(types) != 1 && len(types) != len(names) {
			t.Fatalf("catalogue row %q: %d types for %d families", line, len(types), len(names))
		}
		for i, name := range names {
			name = strings.Trim(strings.TrimSpace(name), "`")
			if _, dup := out[name]; dup {
				t.Fatalf("catalogue lists %s twice", name)
			}
			out[name] = types[min(i, len(types)-1)]
		}
	}
	return out
}

// TestMetricCatalogueMatchesRegistry holds ARCHITECTURE.md's metric
// table to the registry: every family the linked packages register in
// metrics.Default is a row, by name and type, and every row is a
// registered family.
func TestMetricCatalogueMatchesRegistry(t *testing.T) {
	doc, registered := catalogue(t), metrics.Default().Families()
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if got, ok := doc[name]; !ok {
			t.Errorf("%s (%s) is registered but missing from the catalogue", name, registered[name])
		} else if got != registered[name] {
			t.Errorf("the catalogue says %s is a %s; it is registered as a %s", name, got, registered[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(doc)) {
		if _, ok := registered[name]; !ok {
			t.Errorf("the catalogue lists %s, which no package registers", name)
		}
	}
}
