package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
	_ = tr.WithSpan("recovery", func(s *trace.Span) error {
		s.Phase("rendezvous")
		return nil
	})
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
// re-executed with DDPTRAIN_TEST_CHILD set, it is a spawned rank or
// elastic worker — one that, with the value "fail", exits non-zero
// after it finished.
func TestMain(m *testing.M) {
	switch os.Getenv("DDPTRAIN_TEST_CHILD") {
	case "":
		os.Exit(m.Run())
	case "fail":
		main()
		os.Exit(2)
	}
	main()
	os.Exit(0)
}

// useTestBinary points command at this test binary until the test
// ends. edit, when non-nil, may rewrite each child's arguments and
// environment; the returned slice collects every command built.
func useTestBinary(t *testing.T, edit func(*exec.Cmd)) *[]*exec.Cmd {
	prev := command
	t.Cleanup(func() { command = prev })
	var spawned []*exec.Cmd
	command = func(args ...string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DDPTRAIN_TEST_CHILD=1")
		if edit != nil {
			edit(cmd)
		}
		spawned = append(spawned, cmd)
		return cmd
	}
	return &spawned
}

// assertReaped fails the test for every child that is still alive or
// was never waited for.
func assertReaped(t *testing.T, cmds []*exec.Cmd) {
	t.Helper()
	for i, cmd := range cmds {
		if cmd.ProcessState == nil {
			t.Errorf("child %d (pid %d) was not reaped", i, cmd.Process.Pid)
		}
		if err := cmd.Process.Signal(syscall.Signal(0)); err == nil {
			t.Errorf("child %d (pid %d) is still alive", i, cmd.Process.Pid)
		}
	}
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
	o := *parse(nil)
	o.world, o.store, o.iters, o.batch = world, freeAddr(t), 12, 8
	return o
}

// withFlagOff returns o with the named flag set off its default,
// through the flag's own Value.
func withFlagOff(t *testing.T, o options, name string) options {
	var c options
	fs := c.flags()
	c = o
	f := fs.Lookup(name)
	v := map[string]string{"true": "false", "false": "true", "7": "8"}[f.DefValue]
	if v == "" {
		v = "7"
	}
	if err := f.Value.Set(v); err != nil {
		t.Fatalf("-%s=%s: %v", name, v, err)
	}
	return c
}

// flagNames lists every flag the binding declares.
func flagNames() []string {
	var names []string
	(&options{}).flags().VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
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
// or spawned for a combination of values no mode can run, or for any
// flag set off its default in a mode that does not read it.
func TestRunRejectsWhatNoStrategyHonours(t *testing.T) {
	elastic := func(o *options) { o.elastic, o.launch = true, true }
	for _, c := range []struct {
		want string
		edit func(*options)
	}{
		{"unknown strategy", func(o *options) { o.strategy = "zero9" }},
		{"does not support -sync-every", func(o *options) { o.strategy, o.syncEvery = "zero2", 2 }},
		{"does not support -rr", func(o *options) { o.strategy, o.rr = "zero3", 2 }},
		{"unknown compression codec", func(o *options) { o.compress = "lz4" }},
		{`"p0/a" has 2 level(s), "b" has 1`, func(o *options) { o.world, o.hosts = 4, "p0/a,p0/a,p1/b,b" }},
		{"zero2 needs -ckpt-dir", func(o *options) { elastic(o); o.strategy = "zero2" }},
		{"-kill-all needs -ckpt-dir", func(o *options) { elastic(o); o.killAll = true }},
		{"-rank 0, -world 0: data: invalid rank 0 of world 0", func(o *options) { o.world = 0 }},
		{"-sync-every 0, want at least 1", func(o *options) { o.syncEvery = 0 }},
		{"-batch 9000 exceeds a rank's 4096 samples at -world 2", func(o *options) { o.batch = 9000 }},
		{"-batch 0, want at least 1", func(o *options) { o.batch = 0 }},
		{"-rank 2, -world 2: data: invalid rank 2 of world 2", func(o *options) { o.rank = 2 }},
		{"-rank -1, -world 2: data: invalid rank -1 of world 2", func(o *options) { o.rank = -1 }},
		{"-bucket-mb -1, want 0 (per-parameter buckets)", func(o *options) { o.bucketMB = -1 }},
		{fmt.Sprintf("-bucket-mb %d, want", math.MaxInt>>20+1), func(o *options) { o.bucketMB = math.MaxInt>>20 + 1 }},
		{"-rr 0, want at least 1", func(o *options) { o.rr = 0 }},
		{"-ckpt-every -1, want 0 (never) or more", func(o *options) { elastic(o); o.ckptEvery = -1 }},
		{"-kill-all needs -ckpt-every of at least 1", func(o *options) { elastic(o); o.killAll, o.ckptDir, o.ckptEvery = true, "ckpt", 0 }},
		{"-ckpt-every 30 saves none by -kill-step 20", func(o *options) {
			elastic(o)
			o.iters, o.killStep, o.killAll, o.ckptDir, o.ckptEvery = 60, 20, true, "ckpt", 30
		}},
	} {
		// Through validate alone, so that a value it let through fails
		// the row instead of starting a run.
		o := testOptions(t, 2)
		c.edit(&o)
		if err := o.validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got %v, want it refused with %q", err, c.want)
		}
	}
	// Every mode refuses, by name, each flag it does not read. At world 1
	// a flag that slipped through would train and return (or fail for
	// another reason) instead of waiting for a peer.
	bases := map[string]func(*options){
		"train":           func(*options) {},
		"elastic":         func(o *options) { o.elastic, o.store = true, parse(nil).store },
		"elastic -launch": func(o *options) { o.elastic, o.launch = true, true },
		"worker":          func(o *options) { o.elastic, o.id = true, "w0" },
	}
	if len(bases) != len(modeReads) {
		t.Fatalf("%d modes tested, %d declared", len(bases), len(modeReads))
	}
	for mode, edit := range bases {
		base := testOptions(t, 1)
		edit(&base)
		if base.mode() != mode {
			t.Fatalf("base options for %s run in %s mode", mode, base.mode())
		}
		for _, name := range flagNames() {
			o := withFlagOff(t, base, name)
			if o.mode() != mode || slices.Contains(strings.Fields(modeReads[mode]), name) {
				continue // it selects another mode, or this one reads it
			}
			if err := runMode(&o); err == nil || !strings.HasPrefix(err.Error(), "-"+name+" ") {
				t.Errorf("%s mode with -%s set: got %v, want it refused by name", mode, name, err)
			}
		}
	}
}

// TestFlagsRoundTrip pins argv, the one source of a child's command
// line: options with any flag off its default, or all of them, parse
// back from their argv unchanged, and defaults serialize to nothing.
func TestFlagsRoundTrip(t *testing.T) {
	if args := parse(nil).argv(); len(args) != 0 {
		t.Errorf("defaults serialize to %q", args)
	}
	all := *parse(nil)
	for _, name := range flagNames() {
		want := withFlagOff(t, *parse(nil), name)
		if got := *parse(want.argv()); got != want {
			t.Errorf("-%s: %q parsed into %+v, want %+v", name, want.argv(), got, want)
		}
		all = withFlagOff(t, all, name)
	}
	if got := *parse(all.argv()); got != all {
		t.Errorf("every flag set: %q parsed into %+v, want %+v", all.argv(), got, all)
	}
}

// TestLaunchReapsChildrenWhenRankZeroFails is the regression test for
// leaked rank processes: rank 0 spawns ranks 1 and 2, forms the mesh
// and wraps the model with them, then fails alone (its batch size is
// invalid; the children are handed a valid one, so they sit in their
// first AllReduce waiting for it). It must not return before both
// children are dead and reaped.
func TestLaunchReapsChildrenWhenRankZeroFails(t *testing.T) {
	spawned := useTestBinary(t, func(cmd *exec.Cmd) {
		for i, a := range cmd.Args {
			if a == "-batch=0" {
				cmd.Args[i] = "-batch=8"
			}
		}
	})
	o := testOptions(t, 3)
	o.launch, o.batch, o.iters = true, 0, 1_000_000
	_, err := run(&o)
	if err == nil || !strings.Contains(err.Error(), "batch size") {
		t.Fatalf("rank 0 returned %v, want its batch-size failure", err)
	}
	if len(*spawned) != 2 {
		t.Fatalf("spawned %d children, want 2", len(*spawned))
	}
	assertReaped(t, *spawned)
}

// TestLaunchReportsChildFailingAfterRankZero pins the other side of the
// wait for children: rank 2 trains to the end with ranks 0 and 1, then
// exits non-zero. Rank 0 must return that failure, not hang or succeed,
// and leave every child reaped.
func TestLaunchReportsChildFailingAfterRankZero(t *testing.T) {
	spawned := useTestBinary(t, func(cmd *exec.Cmd) {
		if slices.Contains(cmd.Args, "-rank=2") {
			cmd.Env = append(cmd.Env, "DDPTRAIN_TEST_CHILD=fail")
		}
	})
	o := testOptions(t, 3)
	o.launch = true
	_, err := run(&o)
	if err == nil || !strings.Contains(err.Error(), "rank 2: exit status 2") {
		t.Fatalf("rank 0 returned %v, want rank 2's exit status", err)
	}
	if len(*spawned) != 2 {
		t.Fatalf("spawned %d children, want 2", len(*spawned))
	}
	assertReaped(t, *spawned)
}

// TestSupervisorReapsWorkersWhenOneFails is the supervisor's
// counterpart. A worker fails for a real reason (it is handed a flag
// that does not exist), or the victim finishes under another identity
// instead of crashing. Either way the supervisor must return that
// worker's failure — a victim's included, which only a planned crash
// may end — and not before every worker process is dead and reaped.
func TestSupervisorReapsWorkersWhenOneFails(t *testing.T) {
	for _, c := range []struct {
		id, want string
		edit     func(*exec.Cmd)
	}{
		{"w0", "worker w0 failed unexpectedly", func(cmd *exec.Cmd) { cmd.Args = append(cmd.Args, "-no-such-flag") }},
		{"w2", "worker w2 failed unexpectedly", func(cmd *exec.Cmd) { cmd.Args = append(cmd.Args, "-no-such-flag") }},
		{"w2", "victim w2 finished", func(cmd *exec.Cmd) { cmd.Args[slices.Index(cmd.Args, "-id=w2")] = "-id=x2" }},
	} {
		spawned := useTestBinary(t, func(cmd *exec.Cmd) {
			if slices.Contains(cmd.Args, "-id="+c.id) {
				c.edit(cmd)
			}
		})
		o := testOptions(t, 3)
		o.elastic, o.launch = true, true
		if err := o.validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := supervise(&o); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("supervisor returned %v, want %q", err, c.want)
		}
		if len(*spawned) != 3 {
			t.Errorf("spawned %d workers, want 3", len(*spawned))
		}
		assertReaped(t, *spawned)
	}
}

// TestElasticColdRestartAgreesAcrossStrategies runs the -kill-all
// scenario in-proc under every strategy, with -iters not a multiple of
// -ckpt-every so the last step is not a save point: each must end on the
// result ddp ends on, the finishers' full parameters gathered inside the
// final step.
func TestElasticColdRestartAgreesAcrossStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("three multi-second elastic runs")
	}
	var want string
	for _, strategy := range []string{"ddp", "zero2", "zero3"} {
		got := superviseElastic(t, false, func(o *options) {
			o.strategy, o.killStep, o.killAll = strategy, 6, true
			o.ckptDir, o.ckptEvery, o.ckptAsync = t.TempDir(), 5, false
		})
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("-strategy %s ended on %s, -strategy ddp on %s", strategy, got, want)
		}
	}
}

// superviseElastic runs the elastic scenario at world 3 — 12 steps, the
// victim crashed at step 4 — with worker goroutines or, with launch,
// worker processes, and returns the result every finisher published.
func superviseElastic(t *testing.T, launch bool, edit func(*options)) string {
	t.Helper()
	o := testOptions(t, 3)
	o.elastic, o.launch, o.killStep = true, launch, 4
	if !launch {
		o.store = parse(nil).store // in-proc workers share no TCP store
	}
	edit(&o)
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	result, err := supervise(&o)
	if err != nil {
		t.Fatalf("-launch=%v: %v", launch, err)
	}
	return result
}

// TestElasticLaunchMatchesInProc runs each elastic scenario both ways —
// worker goroutines in this process, and worker processes re-executing
// this test binary — and requires the same result from both.
func TestElasticLaunchMatchesInProc(t *testing.T) {
	if testing.Short() {
		t.Skip("four multi-second elastic runs")
	}
	useTestBinary(t, nil)
	results := map[string]string{}
	for _, c := range []struct {
		name string
		edit func(*options)
	}{
		{"respawn", func(*options) {}},
		// Synchronous saves: a checkpoint is committed before the crash.
		{"kill-all", func(o *options) { o.killAll, o.ckptDir, o.ckptEvery, o.ckptAsync = true, t.TempDir(), 2, false }},
	} {
		inProc := superviseElastic(t, false, c.edit)
		if launched := superviseElastic(t, true, c.edit); launched != inProc {
			t.Errorf("%s: -launch ended on %s, in-proc on %s", c.name, launched, inProc)
		}
		results[c.name] = inProc
	}
	// The cold restart resumes the trajectory of a run with no failure;
	// the respawn run trains three steps at world 2 first, so it must end
	// elsewhere.
	if results["respawn"] == results["kill-all"] {
		t.Errorf("respawn ended on the no-failure result %s: did it train at the shrunken world?", results["respawn"])
	}
}
