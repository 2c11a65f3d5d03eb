package repro_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// changesCap is the most bytes a CHANGES.md entry may take: a
// measurement lives once, in a table, not in narrative.
const changesCap = 6144

// firstCappedEntry is the first entry the cap holds; older entries
// predate it.
const firstCappedEntry = 26

var entryHead = regexp.MustCompile(`^- PR ([0-9]+):`)

// entrySizes returns the bytes of each numbered entry of a changelog:
// an entry runs from its "- PR N:" line to the next such line, with
// each of its lines counted with a newline.
func entrySizes(changes string) map[int]int {
	sizes := map[int]int{}
	pr := -1
	for _, line := range strings.Split(strings.TrimSuffix(changes, "\n"), "\n") {
		if m := entryHead.FindStringSubmatch(line); m != nil {
			pr, _ = strconv.Atoi(m[1])
		}
		if pr >= 0 {
			sizes[pr] += len(line) + 1
		}
	}
	return sizes
}

// TestChangesEntriesWithinCap holds every CHANGES.md entry from PR 26 on
// to changesCap bytes.
func TestChangesEntriesWithinCap(t *testing.T) {
	doc, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for pr, size := range entrySizes(string(doc)) {
		if pr >= firstCappedEntry && size > changesCap {
			t.Errorf("CHANGES.md entry %d is %d bytes, over the %d-byte cap", pr, size, changesCap)
		}
	}
}
