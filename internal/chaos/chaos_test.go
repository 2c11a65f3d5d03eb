package chaos

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) {
	// Engine teardown closes the shared store, which unwinds agent
	// monitor loops asynchronously; give stragglers a settle window.
	leakcheck.Main(m, leakcheck.Timeout(10*time.Second))
}

// writeArtifact drops a shrunk reproducer where CI can pick it up as a
// build artifact ($CHAOS_ARTIFACT_DIR; no-op when unset, i.e. locally).
func writeArtifact(t *testing.T, name string, s Schedule) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos: artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, s.Encode(), 0o644); err != nil {
		t.Logf("chaos: writing artifact: %v", err)
		return
	}
	t.Logf("chaos: shrunk reproducer written to %s", path)
}

// failSchedule reports a failing schedule, shrinking it first so the
// error (and the CI artifact) is the minimal reproducer.
func failSchedule(t *testing.T, name string, s Schedule, rep *Report, opts Options) {
	t.Helper()
	min, minRep := Shrink(s, opts)
	writeArtifact(t, name, min)
	t.Errorf("%s\nschedule: %sshrunk to: %s%s", rep, s.Encode(), min.Encode(), minRep)
}

// TestEventKinds runs one handcrafted schedule per fault kind (plus
// codec variants) through the full engine and expects a clean report.
func TestEventKinds(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"kill", Schedule{World: 3, Steps: 5, Events: []Event{{Kind: EvKill, Worker: 0, Step: 2}}}},
		{"kill-mid-step", Schedule{World: 3, Steps: 5, Events: []Event{{Kind: EvKillMidStep, Worker: 2, Step: 1}}}},
		{"hang", Schedule{World: 3, Steps: 5, Events: []Event{{Kind: EvHang, Worker: 1, Step: 2}}}},
		{"partition", Schedule{World: 3, Steps: 5, Events: []Event{{Kind: EvPartition, Worker: 1, Step: 2}}}},
		{"leave", Schedule{World: 3, Steps: 5, Events: []Event{{Kind: EvLeave, Worker: 0, Step: 2}}}},
		{"join", Schedule{World: 2, Steps: 6, Events: []Event{{Kind: EvJoin, Worker: 2, Step: 3}}}},
		{"kill-all", Schedule{World: 2, Steps: 6, CkptEvery: 2, Events: []Event{{Kind: EvKillAll, Step: 4}}}},
		{"kill-all-no-ckpt", Schedule{World: 2, Steps: 5, Events: []Event{{Kind: EvKillAll, Step: 3}}}},
		{"disk-fault", Schedule{World: 3, Steps: 6, CkptEvery: 2, Events: []Event{{Kind: EvDiskFault, Worker: 2, Step: 2}}}},
		{"slow-disk", Schedule{World: 2, Steps: 6, CkptEvery: 2, Events: []Event{{Kind: EvSlowDisk, Worker: 0, Step: 1, SlowMs: 40}}}},
		{"straggle", Schedule{World: 3, Steps: 8, Events: []Event{{Kind: EvStraggle, Worker: 1, Step: 2, Count: 5, SlowMs: 30}}}},
		{"codec-leave", Schedule{World: 3, Steps: 6, Codec: "1bit", Events: []Event{{Kind: EvLeave, Worker: 1, Step: 3}}}},
		{"codec-kill-all", Schedule{World: 2, Steps: 7, Codec: "1bit", CkptEvery: 3, Events: []Event{{Kind: EvKillAll, Step: 4}}}},
		// Sharded (ZeRO) runs: Normalize forces CkptEvery to 1, so every
		// recovery is a rollback onto the live state. kill-mid-step under
		// ZeRO-3 dies inside the forward gather phase (the engine runs
		// fsdp over a gatherHookGroup and arms its kill), the hardest
		// window — a rank vanishing while peers wait on its parameter
		// shards.
		{"zero2-kill", Schedule{World: 3, Steps: 5, Strategy: "zero2", Events: []Event{{Kind: EvKill, Worker: 0, Step: 2}}}},
		{"zero2-leave", Schedule{World: 3, Steps: 5, Strategy: "zero2", Events: []Event{{Kind: EvLeave, Worker: 2, Step: 2}}}},
		{"zero3-gather-kill", Schedule{World: 3, Steps: 5, Strategy: "zero3", Events: []Event{{Kind: EvKillMidStep, Worker: 2, Step: 1}}}},
		{"zero3-join", Schedule{World: 2, Steps: 6, Strategy: "zero3", Events: []Event{{Kind: EvJoin, Worker: 2, Step: 3}}}},
		{"zero3-kill-all", Schedule{World: 2, Steps: 6, Strategy: "zero3", Events: []Event{{Kind: EvKillAll, Step: 4}}}},
		{"zero3-churn", Schedule{World: 3, Steps: 6, Strategy: "zero3", Events: []Event{
			{Kind: EvKill, Worker: 1, Step: 2}, {Kind: EvJoin, Worker: 3, Step: 4}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := Normalize(tc.s)
			if rep := Run(s); rep.Failed() {
				failSchedule(t, "event-"+tc.name, s, rep, Options{})
			}
		})
	}
}

// smokeSeeds is the CI seed set: fixed, so a regression is a
// deterministic failure, not a flake. It deliberately includes seeds
// whose schedules combine the codec with membership churn — the shape
// the planted-bug canary (TestPlantedBugCanary) needs to bite on —
// plus sharded draws (seed 8 is a ZeRO-2 run, 23 and 30 are ZeRO-3
// runs with churn).
var smokeSeeds = []int64{1, 2, 3, 5, 6, 8, 12, 16, 23, 30}

// TestChaosSmokeSeedSet runs every generated schedule in the CI seed
// set and expects clean reports; failures are shrunk and exported.
func TestChaosSmokeSeedSet(t *testing.T) {
	for _, seed := range smokeSeeds {
		seed := seed
		t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			s := Generate(rand.New(rand.NewSource(seed)), seed)
			if rep := Run(s); rep.Failed() {
				failSchedule(t, "seed-"+strconv.FormatInt(seed, 10), s, rep, Options{})
			}
		})
	}
}

// TestPlantedBugCanary proves the harness can actually catch a real
// historical defect: with the residual-reset bug planted at the
// recovery install, some schedule in the CI seed set must produce
// a bitwise violation, the violation must shrink, and the shrunk JSON
// reproducer must replay to the same invariant from its bytes alone.
func TestPlantedBugCanary(t *testing.T) {
	opts := Options{PlantResidualResetBug: true}
	var failing *Schedule
	for _, seed := range smokeSeeds {
		s := Generate(rand.New(rand.NewSource(seed)), seed)
		if rep := RunWithOptions(s, opts); rep.Has(invBitwise) {
			t.Logf("seed %d catches the planted bug", seed)
			failing = &s
			break
		}
	}
	if failing == nil {
		t.Fatalf("no schedule in the CI seed set %v caught the planted residual-reset bug", smokeSeeds)
	}

	min, minRep := Shrink(*failing, opts)
	if !minRep.Has(invBitwise) {
		t.Fatalf("shrinking lost the bitwise violation: %s", minRep)
	}
	if len(min.Events) > len(failing.Events) || min.Steps > failing.Steps {
		t.Fatalf("shrink grew the schedule:\nfrom %sto %s", failing.Encode(), min.Encode())
	}
	t.Logf("shrunk reproducer:\n%s", min.Encode())

	// The reproducer must work from its serialized form alone.
	rep, err := ReplayWithOptions(min.Encode(), opts)
	if err != nil {
		t.Fatalf("replaying shrunk reproducer: %v", err)
	}
	if !rep.Has(invBitwise) {
		t.Fatalf("shrunk reproducer does not replay the violation: %s", rep)
	}

	// And the fixed code must pass it: the violation is the bug's, not
	// the harness's.
	if rep := Run(min); rep.Failed() {
		t.Fatalf("reproducer fails even without the planted bug: %s", rep)
	}
}

// TestCorpusReplay re-executes every committed reproducer verbatim.
// Corpus entries are normal-form schedules that must pass — regression
// reproducers for once-fixed bugs and handcrafted shapes that exercised
// engine edge cases during development.
func TestCorpusReplay(t *testing.T) {
	entries, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus: testdata/corpus/*.json missing")
	}
	for _, path := range entries {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Replay(data)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rep.Failed() {
				s, _ := Decode(data)
				failSchedule(t, "corpus-"+strings.TrimSuffix(filepath.Base(path), ".json"), s, rep, Options{})
			}
		})
	}
}
