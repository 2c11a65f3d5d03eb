package repro_test

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design documents are held to sizes a reader can finish. A
// measurement lives once, in a CHANGES.md entry; ARCHITECTURE.md says
// what exists and names the tests that hold it.
const (
	architectureCap = 64 << 10 // bytes of ARCHITECTURE.md
	changesCap      = 96 << 10 // bytes of CHANGES.md
	recentEntryCap  = 6144     // bytes of each of the newest entries
	olderEntryCap   = 1024     // bytes of every older entry
	recentEntries   = 8        // how many entries, by PR number, are newest
	changesFullText = "git show 1da5c70:CHANGES.md"
)

var (
	entryHead = regexp.MustCompile(`^- PR ([0-9]+):`)
	// testName matches a test, fuzz target, benchmark or example by name.
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_][A-Za-z0-9_]*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	// citation matches a quoted section name right after the document's
	// name, as in a comment that points a reader at a section; a name
	// that closes a string literal starts none.
	citation = regexp.MustCompile(`(?:^|[^"\w])ARCHITECTURE(?:\.md)?(?:'s)?,?\s*\(?"([^"\n]+)"`)
	// wrapped joins a comment's continuation line onto the line above.
	wrapped  = regexp.MustCompile(`\n[ \t]*(?://|#)[ \t]*`)
	heading  = regexp.MustCompile(`(?m)^#+ (.+)$`)
	boldLead = regexp.MustCompile(`(?m)^(?:- |[0-9]+\. )?\*\*([^*]+)\*\*`)
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	doc, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

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

// TestDocsWithinCaps holds ARCHITECTURE.md and CHANGES.md to their caps.
func TestDocsWithinCaps(t *testing.T) {
	for _, c := range []struct {
		name string
		cap  int
	}{{"ARCHITECTURE.md", architectureCap}, {"CHANGES.md", changesCap}} {
		if size := len(readDoc(t, c.name)); size > c.cap {
			t.Errorf("%s is %d bytes, over its %d-byte cap", c.name, size, c.cap)
		}
	}
}

// TestChangesEntriesWithinCap holds CHANGES.md to its rolling rule: the
// recentEntries newest entries, by PR number, take at most
// recentEntryCap bytes each and every older one olderEntryCap, and the
// first line points to the full text the older entries were cut from.
func TestChangesEntriesWithinCap(t *testing.T) {
	doc := readDoc(t, "CHANGES.md")
	if first, _, _ := strings.Cut(doc, "\n"); !strings.Contains(first, changesFullText) || entryHead.MatchString(first) {
		t.Errorf("CHANGES.md's first line %q does not point to `%s`", first, changesFullText)
	}
	sizes := entrySizes(doc)
	prs := slices.Sorted(maps.Keys(sizes))
	for i, pr := range prs {
		limit := olderEntryCap
		if i >= len(prs)-recentEntries {
			limit = recentEntryCap
		}
		if sizes[pr] > limit {
			t.Errorf("CHANGES.md entry %d is %d bytes, over the %d-byte cap", pr, sizes[pr], limit)
		}
	}
}

// sections returns the level-2 sections of a document by heading, each
// with its text up to the next one.
func sections(doc string) map[string]string {
	out := map[string]string{}
	parts := strings.Split(doc, "\n## ")
	for _, part := range parts[1:] {
		title, body, _ := strings.Cut(part, "\n")
		out[title] = body
	}
	return out
}

// TestArchitectureSectionsNameTests requires every "## " section of
// ARCHITECTURE.md to name a test that holds what it says.
func TestArchitectureSectionsNameTests(t *testing.T) {
	for title, body := range sections(readDoc(t, "ARCHITECTURE.md")) {
		if !testName.MatchString(body) {
			t.Errorf("ARCHITECTURE.md section %q names no test", title)
		}
	}
}

// walkRepo calls visit with the path and contents of every file under
// the module root, the benchmark module included, whose path match
// accepts.
func walkRepo(t *testing.T, match func(path string) bool, visit func(path, text string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !match(path) {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		visit(path, string(text))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchitectureTestsExist requires every test, fuzz target, benchmark
// or example ARCHITECTURE.md names to be declared in a _test.go file.
func TestArchitectureTestsExist(t *testing.T) {
	declared := map[string]bool{}
	walkRepo(t, func(path string) bool { return strings.HasSuffix(path, "_test.go") }, func(_, text string) {
		for _, m := range testDecl.FindAllStringSubmatch(text, -1) {
			declared[m[1]] = true
		}
	})
	for _, name := range testName.FindAllString(readDoc(t, "ARCHITECTURE.md"), -1) {
		if !declared[name] {
			t.Errorf("ARCHITECTURE.md names %s, which no _test.go file declares", name)
			declared[name] = true // report each once
		}
	}
}

// TestArchitectureCitationsResolve requires every section the code, the
// CI scripts and workflow, the repository's SKILL.md notes and
// ROADMAP.md cite by name after the document's name to be a heading or a
// bold lead-in of ARCHITECTURE.md. A citation may wrap across comment
// lines.
func TestArchitectureCitationsResolve(t *testing.T) {
	doc := readDoc(t, "ARCHITECTURE.md")
	names := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(doc, -1) {
		names[strings.TrimSpace(m[1])] = true
	}
	for _, m := range boldLead.FindAllStringSubmatch(doc, -1) {
		names[strings.TrimRight(strings.TrimSpace(m[1]), ".:")] = true
	}
	cited := 0
	walkRepo(t, func(path string) bool {
		dir, file := filepath.Split(path)
		return strings.HasSuffix(path, ".go") ||
			dir == "ci/" && strings.HasSuffix(file, ".sh") ||
			file == "SKILL.md" ||
			slices.Contains([]string{".github/workflows/ci.yml", "ROADMAP.md"}, path)
	}, func(path, text string) {
		if strings.HasSuffix(path, ".md") {
			text = strings.Join(strings.Fields(text), " ")
		} else {
			text = wrapped.ReplaceAllString(text, " ")
		}
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			cited++
			if name := strings.Join(strings.Fields(m[1]), " "); !names[name] {
				t.Errorf("%s cites ARCHITECTURE.md's %q, which is no heading or bold lead-in there", path, name)
			}
		}
	})
	if cited == 0 {
		t.Error("found no citation of ARCHITECTURE.md at all; the pattern has stopped matching")
	}
}
