package lint

import (
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	loaderInst *Loader
	loaderErr  error
)

// sharedLoader returns one loader per test binary so the module's
// packages (and the standard library) are type-checked once.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderInst, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderInst
}

func fixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := sharedLoader(t).LoadDir(filepath.Join("internal", "lint", "testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// fixturePkgs loads every package at or under the fixture directory
// name: the module a module-wide analyzer sees.
func fixturePkgs(t *testing.T, name string) []*Package {
	t.Helper()
	root := filepath.Join(sharedLoader(t).ModRoot, "internal", "lint", "testdata", name)
	var pkgs []*Package
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && hasGoFiles(p) {
			var pkg *Package
			pkg, err = sharedLoader(t).LoadDir(p)
			pkgs = append(pkgs, pkg)
		}
		return err
	})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkgs
}

// site is a file line.
type site struct {
	file string
	line int
}

// wantLines collects the lines of the fixture packages that carry a
// //lint:want <analyzer> marker, alone or at the end of another comment.
func wantLines(pkgs []*Package, analyzer string) map[site]bool {
	want := map[site]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					_, rest, ok := strings.Cut(c.Text, "//lint:want ")
					if ok && strings.TrimSpace(rest) == analyzer {
						pos := pkg.Fset.Position(c.Pos())
						want[site{pos.Filename, pos.Line}] = true
					}
				}
			}
		}
	}
	return want
}

// ruleAnalyzer returns the analyzer whose findings carry name.
func ruleAnalyzer(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if findingNames([]*Analyzer{a})[name] {
			return a
		}
	}
	t.Fatalf("no analyzer reports %q", name)
	return nil
}

// TestAnalyzersOnFixtures drives every analyzer, and every row of the
// site table and of reach's callers rows, over its seeded-bad and clean
// fixtures, each the packages at or under a directory: for every name
// the analyzer's findings carry, and "pragma" for a pragma it leaves
// unused, each //lint:want line of that name must produce such a finding
// and none may appear on an unannotated line, and the clean fixture must
// keep the analyzer silent.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		analyzer string
		bad, ok  string
	}{
		{"storeerr", "storeerr_bad", "storeerr_ok"},
		{"metricstatic", "metricstatic_bad", "metricstatic_ok"},
		{"lockedcollective", "lockedcollective_bad", "lockedcollective_ok"},
		{"atomic64align", "atomic64align_bad", "atomic64align_ok"},
		{"costtwins", "costtwins_hw_bad", "costtwins_hw_ok"},
		{"costtwins", "costtwins_simnet_bad", "costtwins_simnet_ok"},
		{"transportcalls", "transportcalls_bad/internal/comm", "transportcalls_ok/internal/comm"},
		{"oneconstructor", "oneconstructor_bad", "oneconstructor_ok"},
		{"onealign", "onealign_bad", "onealign_ok"},
		{"onespawn", "onespawn_bad/cmd/ddptrain", "onespawn_ok/cmd/ddptrain"},
		{"onespawn", "onespawn_none/cmd/ddptrain", "onespawn_ok/cmd/ddptrain"},
		{"doc", "doc_bad", "doc_ok"},
		{"callers", "callers_bad", "callers_ok"},
		{"reach", "reach_bad", "reach_ok"},
	}
	for _, tc := range cases {
		a := ruleAnalyzer(t, tc.analyzer)
		t.Run(tc.analyzer+"/seeded", func(t *testing.T) {
			pkgs := fixturePkgs(t, tc.bad)
			if len(wantLines(pkgs, tc.analyzer)) == 0 {
				t.Fatalf("fixture %s has no //lint:want %s annotations", tc.bad, tc.analyzer)
			}
			findings := Run(pkgs, []*Analyzer{a}).Findings
			for name := range findingNames([]*Analyzer{a, {Name: "pragma"}}) {
				want, got := wantLines(pkgs, name), map[site][]string{}
				for _, f := range findings {
					if f.Analyzer == name {
						at := site{f.Pos.Filename, f.Pos.Line}
						got[at] = append(got[at], f.Message)
					}
				}
				for at := range want {
					if len(got[at]) == 0 {
						t.Errorf("%s: expected a %s finding at %s:%d, got none", tc.bad, name, filepath.Base(at.file), at.line)
					}
				}
				for at, msgs := range got {
					if !want[at] {
						t.Errorf("%s: unexpected %s finding at %s:%d: %s", tc.bad, name, filepath.Base(at.file), at.line, msgs[0])
					}
				}
			}
		})
		t.Run(tc.analyzer+"/clean", func(t *testing.T) {
			for _, f := range Run(fixturePkgs(t, tc.ok), []*Analyzer{a}).Findings {
				t.Errorf("%s: unexpected finding: %s", tc.ok, f)
			}
		})
	}
}

// TestSiteRulesHaveNoIdleSite runs checkSites on every row of the site
// table that has no test of its own below.
func TestSiteRulesHaveNoIdleSite(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(siteRules)) {
		if name != "oneconstructor" && name != "onealign" {
			checkSites(t, name)
		}
	}
}

// TestOneConstructorExemptions: strategy and benchmark each name a
// replica constructor, and pass the site rules.
func TestOneConstructorExemptions(t *testing.T) { checkSites(t, "oneconstructor") }

// TestOneAlignExemption: core.go broadcasts both kinds of module
// storage, and internal/replica passes the site rules.
func TestOneAlignExemption(t *testing.T) { checkSites(t, "onealign", "a parameter", "a buffer") }

// checkSites holds the site rule called name to its allowed sites: each
// names the rule's symbols in the tree, on every one of kinds when given,
// so no exemption outlives the code it allowed, and the site rules pass
// the site's package. A rule that wants its symbols named once finds them
// named once in its scope.
func checkSites(t *testing.T, name string, kinds ...string) {
	t.Helper()
	r := siteRules[name]
	sites := r.allowed
	if r.once {
		sites = []string{r.scope}
	}
	for _, site := range sites {
		dir := site
		if strings.HasSuffix(site, ".go") {
			dir = path.Dir(site)
		}
		pkg, err := sharedLoader(t).LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		seen := map[string]bool{}
		n := 0
		for _, u := range siteUses(pkg)[name] {
			if u.at(site) {
				seen[u.subject] = true
				n++
			}
		}
		switch {
		case r.once && n != 1:
			t.Errorf("%s: %s names %v %d times, want once", name, site, r.symbols, n)
		case n == 0:
			t.Errorf("%s: %s names none of %v; drop the site", name, site, r.symbols)
		}
		for _, k := range kinds {
			if !seen[k] {
				t.Errorf("%s: %s names %v on no %s; want %v", name, site, r.symbols, k, kinds)
			}
		}
		for _, f := range Sites.Run(pkg) {
			t.Errorf("%s: unexpected finding: %s", site, f)
		}
	}
}

// TestCleanFixturesPassFullSuite runs the whole analyzer suite over the
// clean fixtures: an _ok fixture must not trip any analyzer, not just
// its own.
func TestCleanFixturesPassFullSuite(t *testing.T) {
	for _, name := range []string{
		"storeerr_ok", "metricstatic_ok", "lockedcollective_ok", "atomic64align_ok",
		"costtwins_hw_ok", "costtwins_simnet_ok", "transportcalls_ok/internal/comm", "oneconstructor_ok",
		"onealign_ok", "onespawn_ok/cmd/ddptrain", "doc_ok", "callers_ok", "reach_ok",
	} {
		res := Run(fixturePkgs(t, name), All())
		for _, f := range res.Findings {
			t.Errorf("%s: unexpected finding from full suite: %s", name, f)
		}
	}
}

// TestIgnorePragmas checks the driver's pragma plumbing: a well-formed
// pragma on the line or the line above suppresses exactly its analyzer
// and increments the ignored count. A pragma without a reason, one whose
// name is misspelled and one over a clean line are each reported, and the
// first two suppress nothing. A pragma suppresses nothing only in a run
// that includes its analyzer.
func TestIgnorePragmas(t *testing.T) {
	pkg := fixturePkg(t, "pragma")
	res := Run([]*Package{pkg}, All())
	if res.Ignored != 2 {
		t.Errorf("ignored count = %d, want 2", res.Ignored)
	}
	var pragmas []string
	unsuppressed := 0
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "pragma":
			pragmas = append(pragmas, f.Message)
		case "storeerr":
			unsuppressed++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if unsuppressed != 2 {
		t.Errorf("%d storeerr findings survive, want the two under the malformed and the misspelled pragma", unsuppressed)
	}
	wantPragmas := func(pragmas []string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !slices.ContainsFunc(pragmas, func(m string) bool { return strings.Contains(m, w) }) {
				t.Errorf("no pragma finding says %q", w)
			}
		}
		if len(pragmas) != len(want) {
			t.Errorf("pragma findings %q, want one for each of %q", pragmas, want)
		}
	}
	wantPragmas(pragmas, "malformed ignore pragma", `names no analyzer or rule: "storerr"`, "storeerr suppresses nothing")

	pragmas = nil
	for _, f := range Run([]*Package{pkg}, []*Analyzer{MetricStatic}).Findings {
		pragmas = append(pragmas, f.Message)
	}
	wantPragmas(pragmas, "malformed ignore pragma", `names no analyzer or rule: "storerr"`)
}

// TestFindingsSortedAndFormatted pins the driver's output contract:
// findings sort by file then line, and String renders the canonical
// file:line: [analyzer] message form CI greps for.
func TestFindingsSortedAndFormatted(t *testing.T) {
	pkg := fixturePkg(t, "storeerr_bad")
	res := Run([]*Package{pkg}, All())
	if len(res.Findings) < 2 {
		t.Fatalf("expected multiple findings, got %d", len(res.Findings))
	}
	for i := 1; i < len(res.Findings); i++ {
		a, b := res.Findings[i-1].Pos, res.Findings[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
	s := res.Findings[0].String()
	if !strings.Contains(s, ".go:") || !strings.Contains(s, "[storeerr]") {
		t.Errorf("finding String %q missing file:line or [analyzer]", s)
	}
}

// TestTreeIsClean is the in-repo mirror of the CI gate: the current
// tree must produce zero unsuppressed findings, a pragma that suppresses
// nothing among them. It also asserts the tree's intentional exceptions
// are exercised (ignored > 0).
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in short mode")
	}
	pkgs, err := sharedLoader(t).LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	res := Run(pkgs, All())
	for _, f := range res.Findings {
		t.Errorf("tree not clean: %s", f)
	}
	if res.Ignored == 0 {
		t.Error("expected at least one pragma-suppressed finding on the tree (the documented best-effort sites)")
	}
}
