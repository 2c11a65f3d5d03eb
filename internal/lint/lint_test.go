package lint

import (
	"path/filepath"
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

// wantLines collects the lines annotated //lint:want <analyzer> in the
// fixture package.
func wantLines(pkg *Package, analyzer string) map[int]bool {
	want := map[int]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:want ")
				if ok && strings.TrimSpace(rest) == analyzer {
					want[pkg.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
	}
	return want
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestAnalyzersOnFixtures drives every analyzer over its seeded-bad and
// clean fixture packages: each //lint:want line must produce a finding,
// no finding may appear on an unannotated line, and the clean fixture
// must stay silent.
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
		{"transportcalls", "transportcalls_bad", "transportcalls_ok"},
		{"oneconstructor", "oneconstructor_bad", "oneconstructor_ok"},
	}
	for _, tc := range cases {
		a := analyzerByName(t, tc.analyzer)
		t.Run(tc.analyzer+"/seeded", func(t *testing.T) {
			pkg := fixturePkg(t, tc.bad)
			want := wantLines(pkg, tc.analyzer)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no //lint:want %s annotations", tc.bad, tc.analyzer)
			}
			got := map[int][]string{}
			for _, f := range a.Run(pkg) {
				got[f.Pos.Line] = append(got[f.Pos.Line], f.Message)
			}
			for line := range want {
				if len(got[line]) == 0 {
					t.Errorf("%s: expected a %s finding at line %d, got none", tc.bad, tc.analyzer, line)
				}
			}
			for line, msgs := range got {
				if !want[line] {
					t.Errorf("%s: unexpected %s finding at line %d: %s", tc.bad, tc.analyzer, line, msgs[0])
				}
			}
		})
		t.Run(tc.analyzer+"/clean", func(t *testing.T) {
			pkg := fixturePkg(t, tc.ok)
			for _, f := range a.Run(pkg) {
				t.Errorf("%s: unexpected finding: %s", tc.ok, f)
			}
		})
	}
}

// TestOneConstructorExemptions: the two packages oneconstructor exempts
// by name, strategy (Build) and the frozen benchmark harness, do name
// the replica constructors, so neither exemption is idle, and the
// analyzer passes both.
func TestOneConstructorExemptions(t *testing.T) {
	for _, dir := range []string{"internal/strategy", "benchmark"} {
		pkg, err := sharedLoader(t).LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		if len(constructorUses(pkg)) == 0 {
			t.Errorf("%s names no replica constructor; drop its exemption", dir)
		}
		for _, f := range OneConstructor.Run(pkg) {
			t.Errorf("%s: unexpected finding: %s", dir, f)
		}
	}
}

// TestCleanFixturesPassFullSuite runs the whole analyzer suite over the
// clean fixtures: an _ok fixture must not trip any analyzer, not just
// its own.
func TestCleanFixturesPassFullSuite(t *testing.T) {
	for _, name := range []string{
		"storeerr_ok", "metricstatic_ok", "lockedcollective_ok", "atomic64align_ok",
		"costtwins_hw_ok", "costtwins_simnet_ok", "transportcalls_ok", "oneconstructor_ok",
	} {
		pkg := fixturePkg(t, name)
		res := Run([]*Package{pkg}, All())
		for _, f := range res.Findings {
			t.Errorf("%s: unexpected finding from full suite: %s", name, f)
		}
	}
}

// TestIgnorePragmas checks the driver's pragma plumbing: a well-formed
// pragma on the line or the line above suppresses exactly its analyzer
// and increments the ignored count; a pragma without a reason is
// reported and suppresses nothing.
func TestIgnorePragmas(t *testing.T) {
	pkg := fixturePkg(t, "pragma")
	res := Run([]*Package{pkg}, All())
	if res.Ignored != 2 {
		t.Errorf("ignored count = %d, want 2", res.Ignored)
	}
	var gotMalformed, gotUnsuppressed bool
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "pragma":
			gotMalformed = true
		case "storeerr":
			// The finding covered by the malformed pragma must survive.
			gotUnsuppressed = true
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !gotMalformed {
		t.Error("malformed pragma was not reported")
	}
	if !gotUnsuppressed {
		t.Error("finding under a malformed pragma was suppressed")
	}
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
// tree must produce zero unsuppressed findings. It also asserts the
// tree's intentional exceptions are actually exercised (ignored > 0),
// so a stale pragma shows up as a failure here when its finding goes
// away.
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
