package main

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace"
)

// newTestTracer returns a tracer with one finished root span so the
// JSON dump is non-trivial.
func newTestTracer() *trace.Tracer {
	tr := trace.NewTracer()
	s := tr.StartSpan("recovery")
	s.Phase("rendezvous")
	s.Finish()
	return tr
}

func TestDumpTraceWritesParseableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := dumpTrace(newTestTracer(), path); err != nil {
		t.Fatalf("dumpTrace: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var roots []struct {
		Name  string    `json:"name"`
		Start time.Time `json:"start"`
	}
	if err := json.Unmarshal(raw, &roots); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, raw)
	}
	if len(roots) != 1 || roots[0].Name != "recovery" {
		t.Fatalf("unexpected span trees: %+v", roots)
	}
}

// TestDumpTraceReportsWriteError pins the fix for silently dropped
// trace-file errors: a failing write (or close) must surface to the
// caller instead of vanishing behind a deferred Close.
func TestDumpTraceReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	if err := dumpTrace(newTestTracer(), "/dev/full"); err == nil {
		t.Fatal("dumpTrace to /dev/full returned nil, want write error")
	}
}

func TestDumpTraceReportsCreateError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "trace.json")
	if err := dumpTrace(newTestTracer(), path); err == nil {
		t.Fatal("dumpTrace into a missing directory returned nil, want error")
	}
}

// TestMain lets the test binary stand in for the ddptrain binary:
// re-executed with DDPTRAIN_TEST_CHILD set, it is a spawned rank.
func TestMain(m *testing.M) {
	if os.Getenv("DDPTRAIN_TEST_CHILD") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr reserves a loopback port for a run's rendezvous store.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// testOptions is the command line's defaults, shortened.
func testOptions(t *testing.T, world int) options {
	return options{
		world: world, store: freeAddr(t), iters: 12, batch: 8, lr: 0.05, bucketMB: 25,
		strategy: "ddp", algo: "ring", syncEvery: 1, rr: 1,
	}
}

// TestRunAgreesAcrossStrategies drives the one training loop for every
// strategy at world 2 — two ranks of run in this process, meeting over
// a loopback TCP store exactly like two OS processes would. Each run
// must end with consistent replicas (run fails otherwise), and the
// sharded runs must end on the hash the replicated run ends on: the
// command's claim that ZeRO over Ring groups IS the DDP trajectory.
func TestRunAgreesAcrossStrategies(t *testing.T) {
	train := func(strategy, compress string) uint64 {
		t.Helper()
		base := testOptions(t, 2)
		base.strategy, base.compress = strategy, compress
		hashes := make([]uint64, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for rank := range hashes {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				o := base
				o.rank = rank
				hashes[rank], errs[rank] = run(&o)
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("-strategy %s -compress %q rank %d: %v", strategy, compress, rank, err)
			}
		}
		if hashes[0] != hashes[1] {
			t.Fatalf("-strategy %s: ranks returned hashes %016x and %016x", strategy, hashes[0], hashes[1])
		}
		return hashes[0]
	}
	want := train("ddp", "")
	for _, strategy := range []string{"zero2", "zero3"} {
		if got := train(strategy, ""); got != want {
			t.Errorf("-strategy %s ended on hash %016x, -strategy ddp on %016x", strategy, got, want)
		}
	}
	// Compression changes the trajectory, never the agreement.
	if got := train("ddp", "fp16"); got == want {
		t.Errorf("fp16 run ended on the uncompressed hash %016x; was the codec applied?", got)
	}
}

// TestRunRejectsWhatNoStrategyHonours pins validate: nothing is bound
// or spawned for a combination the loop cannot run.
func TestRunRejectsWhatNoStrategyHonours(t *testing.T) {
	for name, edit := range map[string]func(*options){
		"unknown strategy":                    func(o *options) { o.strategy = "zero9" },
		"sharded no_sync":                     func(o *options) { o.strategy, o.syncEvery = "zero2", 2 },
		"sharded roundrobin":                  func(o *options) { o.strategy, o.rr = "zero3", 2 },
		"unknown codec":                       func(o *options) { o.compress = "lz4" },
		"elastic zero3":                       func(o *options) { o.elastic, o.strategy, o.ckptDir = true, "zero3", t.TempDir() },
		"elastic sharded without checkpoints": func(o *options) { o.elastic, o.strategy = true, "zero2" },
	} {
		o := testOptions(t, 2)
		edit(&o)
		if _, err := run(&o); err == nil {
			t.Errorf("%s: run accepted it", name)
		}
	}
}

// TestLaunchReapsChildrenWhenRankZeroFails is the regression test for
// leaked rank processes: rank 0 spawns ranks 1 and 2, forms the mesh
// and wraps the model with them, then fails alone (its batch size is
// invalid; the children are handed a valid one, so they sit in their
// first AllReduce waiting for it). It must not return before both
// children are dead and reaped.
func TestLaunchReapsChildrenWhenRankZeroFails(t *testing.T) {
	defer func(l func(...string) *exec.Cmd) { launchRank = l }(launchRank)
	var spawned []*exec.Cmd
	launchRank = func(args ...string) *exec.Cmd {
		for i, a := range args {
			if a == "-batch" {
				args[i+1] = "8"
			}
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DDPTRAIN_TEST_CHILD=1")
		spawned = append(spawned, cmd)
		return cmd
	}
	o := testOptions(t, 3)
	o.launch, o.batch, o.iters = true, 0, 1_000_000
	_, err := run(&o)
	if err == nil || !strings.Contains(err.Error(), "batch size") {
		t.Fatalf("rank 0 returned %v, want its batch-size failure", err)
	}
	if len(spawned) != 2 {
		t.Fatalf("spawned %d children, want 2", len(spawned))
	}
	for i, cmd := range spawned {
		if cmd.ProcessState == nil {
			t.Errorf("child %d (pid %d) was not reaped", i+1, cmd.Process.Pid)
		}
		if err := cmd.Process.Signal(syscall.Signal(0)); err == nil {
			t.Errorf("child %d (pid %d) is still alive", i+1, cmd.Process.Pid)
		}
	}
}
