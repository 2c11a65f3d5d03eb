package elastic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// validPhases is the vocabulary reconfigure() narrates recoveries in.
var validPhases = map[string]bool{
	"teardown":   true,
	"rendezvous": true,
	"mesh-build": true,
	"state-sync": true,
	"rebind":     true,
	"install":    true,
}

// assertSpanTiles checks the structural invariant the recovery trace is
// built on: the phases partition the root exactly — contiguous, inside
// the root, and summing to precisely the root's duration — so a
// recovery-time regression is always attributable to a phase.
func assertSpanTiles(t *testing.T, root *trace.Span) {
	t.Helper()
	if root.Name != "recovery" {
		t.Fatalf("root span named %q, want recovery", root.Name)
	}
	if root.End.IsZero() {
		t.Fatalf("recovery span left open (started %v)", root.Start)
	}
	if len(root.Children) == 0 {
		t.Fatalf("recovery span has no phases")
	}
	var sum time.Duration
	cursor := root.Start
	for i, c := range root.Children {
		if !validPhases[c.Name] {
			t.Fatalf("phase %d has unexpected name %q", i, c.Name)
		}
		if !c.Start.Equal(cursor) {
			t.Fatalf("phase %q starts at %v, want %v (gap or overlap)", c.Name, c.Start, cursor)
		}
		if c.End.IsZero() {
			t.Fatalf("phase %q left open", c.Name)
		}
		sum += c.Duration()
		cursor = c.End
	}
	if !cursor.Equal(root.End) {
		t.Fatalf("last phase ends at %v, root at %v", cursor, root.End)
	}
	if sum != root.Duration() {
		t.Fatalf("phase durations sum to %v, recovery took %v", sum, root.Duration())
	}
	if root.Children[0].Name != "teardown" {
		t.Fatalf("first phase %q, want teardown", root.Children[0].Name)
	}
}

// TestRecoverySpansTileRecoveryDuration runs a 3-worker job, kills one
// mid-step, and checks every survivor recorded span trees — the initial
// formation and the post-crash recovery — whose phase durations sum
// exactly to the recovery duration.
func TestRecoverySpansTileRecoveryDuration(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 6
		k     = 3 // step during which the victim dies
	)

	recoveriesBefore := mRecoveries.Value()

	workers := make([]*testWorker, 3)
	tracers := make([]*trace.Tracer, 3)
	for i := range workers {
		cfg := testConfig(st, reg, fmt.Sprintf("tw%d", i), 2, 3)
		cfg.Prefix = "span-test"
		tracers[i] = trace.NewTracer()
		cfg.Tracer = tracers[i]
		workers[i] = newTestWorker(t, cfg)
	}
	victim := workers[2]

	errs := runWorkers(t, workers, total, func(i int, w *testWorker) StepFunc {
		return fullWorld(w, 3, func(ctx StepContext) error {
			if w == victim && ctx.Step == k {
				x, _ := batchFor(ctx.Step, ctx.Rank, ctx.World)
				ctx.Replica.Forward(autograd.Constant(x))
				w.agent.Kill()
				return errors.New("simulated crash")
			}
			return elasticStep(ctx)
		})
	})
	if !errors.Is(errs[2], ErrKilled) {
		t.Fatalf("victim returned %v, want ErrKilled", errs[2])
	}
	for i := range workers[:2] {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
	}

	for i := range workers[:2] {
		roots := tracers[i].Roots()
		// At least the initial formation and the post-crash recovery;
		// possibly more (a failed attempt records its own tree).
		if len(roots) < 2 {
			t.Fatalf("survivor %d recorded %d recovery spans, want >= 2", i, len(roots))
		}
		for _, root := range roots {
			assertSpanTiles(t, root)
		}
		// The successful recovery reached install.
		last := roots[len(roots)-1]
		if got := last.Children[len(last.Children)-1].Name; got != "install" {
			t.Fatalf("survivor %d's final recovery ends in phase %q, want install", i, got)
		}
	}

	// The agent holds the tracer it was configured with, and successful
	// recoveries moved the global counter.
	if workers[0].agent.cfg.Tracer != tracers[0] {
		t.Fatalf("the agent holds a different tracer")
	}
	if got := mRecoveries.Value(); got <= recoveriesBefore {
		t.Fatalf("elastic_recoveries_total did not advance: %v -> %v", recoveriesBefore, got)
	}
	// The assignment gauges reflect the survivors' final world.
	for i, w := range workers[:2] {
		a := w.agent.assignment()
		if got := testutil.Sample(t, `elastic_world_size{worker="`+w.agent.cfg.ID+`"}`); got != float64(a.World) {
			t.Fatalf("survivor %d elastic_world_size = %v, assignment world %d", i, got, a.World)
		}
		if got := testutil.Sample(t, `elastic_generation{worker="`+w.agent.cfg.ID+`"}`); got != float64(a.Generation) {
			t.Fatalf("survivor %d elastic_generation = %v, assignment generation %d", i, got, a.Generation)
		}
	}
}

// TestStragglerDetectorFlagsSlowRank drives three detectors over a
// shared store with deterministic latencies: two 10ms workers, one
// 100ms worker. The slow worker must flag itself within a bounded
// number of steps (its first evaluation round) and the fast workers
// must never flag.
func TestStragglerDetectorFlagsSlowRank(t *testing.T) {
	st := store.NewInMem(5 * time.Second)
	defer st.Close()
	cfg := StragglerConfig{Window: 8, PublishEvery: 2, Factor: 2, MinPeers: 2, MinSamples: 2}

	var flags []StragglerFlag
	slowCfg := cfg
	slowCfg.OnFlag = func(f StragglerFlag) { flags = append(flags, f) }

	ids := []string{"fast-a", "fast-b", "slow"}
	fastA := NewStragglerDetector(st, "st", ids[0], cfg)
	fastB := NewStragglerDetector(st, "st", ids[1], cfg)
	slow := NewStragglerDetector(st, "st", ids[2], slowCfg)
	fastA.SetPeers([]string{ids[1], ids[2]})
	fastB.SetPeers([]string{ids[0], ids[2]})
	slow.SetPeers([]string{ids[0], ids[1]})

	const bound = 4 // must flag within this many steps
	flaggedAt := -1
	for step := 1; step <= 8; step++ {
		fastA.Record(10 * time.Millisecond)
		fastB.Record(10 * time.Millisecond)
		slow.Record(100 * time.Millisecond)
		if flaggedAt < 0 && slow.isFlagged() {
			flaggedAt = step
		}
	}
	if flaggedAt < 0 {
		t.Fatalf("slow worker never flagged")
	}
	if flaggedAt > bound {
		t.Fatalf("slow worker flagged at step %d, want <= %d", flaggedAt, bound)
	}
	if fastA.isFlagged() || fastB.isFlagged() {
		t.Fatalf("fast workers flagged: a=%v b=%v", fastA.isFlagged(), fastB.isFlagged())
	}
	if len(flags) != 1 || !flags[0].Flagged || flags[0].Worker != "slow" {
		t.Fatalf("OnFlag transitions = %+v, want exactly one flagged transition for slow", flags)
	}
	if flags[0].Median < 90*time.Millisecond || flags[0].WorldMedian > 20*time.Millisecond {
		t.Fatalf("flag carried median %v / world %v, want ~100ms vs ~10ms", flags[0].Median, flags[0].WorldMedian)
	}
	if got := testutil.Sample(t, `elastic_straggler{worker="slow"}`); got != 1 {
		t.Fatalf("elastic_straggler{slow} = %v, want 1", got)
	}
	if got := testutil.Sample(t, `elastic_straggler{worker="fast-a"}`); got != 0 {
		t.Fatalf("elastic_straggler{fast-a} = %v, want 0", got)
	}

	// Recovery: the slow worker speeds up; the flag must clear and the
	// transition must be reported.
	for step := 0; step < 16; step++ {
		fastA.Record(10 * time.Millisecond)
		fastB.Record(10 * time.Millisecond)
		slow.Record(10 * time.Millisecond)
	}
	if slow.isFlagged() {
		t.Fatalf("slow worker still flagged after recovering")
	}
	if len(flags) != 2 || flags[1].Flagged {
		t.Fatalf("OnFlag transitions after recovery = %+v, want a clearing transition", flags)
	}
}

// TestAgentStragglerWiring runs a healthy elastic job with detection
// enabled and checks the plumbing: each step records its latency
// through Agent.Straggler, medians are gossiped into the store under
// the job prefix and no worker is falsely flagged (synchronous
// collectives equalize wall time across ranks, so a healthy world must
// read as flat).
func TestAgentStragglerWiring(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const total = 8

	workers := make([]*testWorker, 2)
	for i := range workers {
		cfg := testConfig(st, reg, fmt.Sprintf("sw%d", i), 2, 2)
		cfg.Prefix = "strag-wire"
		cfg.Straggler = &StragglerConfig{Window: 4, PublishEvery: 2, MinPeers: 1, MinSamples: 2}
		workers[i] = newTestWorker(t, cfg)
	}

	errs := runWorkers(t, workers, total, func(i int, w *testWorker) StepFunc {
		return fullWorld(w, 2, func(ctx StepContext) error {
			start := time.Now()
			err := elasticStep(ctx)
			if err == nil {
				w.agent.Straggler().Record(time.Since(start))
			}
			return err
		})
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i, w := range workers {
		det := w.agent.Straggler()
		if det == nil {
			t.Fatalf("worker %d has no straggler detector", i)
		}
		if det.isFlagged() {
			t.Fatalf("worker %d falsely flagged in a healthy world", i)
		}
		v, err := st.Add(LatencyKey("strag-wire", w.agent.cfg.ID), 0)
		if err != nil || v <= 0 {
			t.Fatalf("worker %d published median %d (err %v), want > 0", i, v, err)
		}
	}
}

// TestHeartbeatMissCounter: a monitored peer that never beats expires
// exactly once, and the expiry lands on the global miss counter.
func TestHeartbeatMissCounter(t *testing.T) {
	st := store.NewInMem(5 * time.Second)
	defer st.Close()
	before := mHeartbeatMisses.Value()
	expired := make(chan string, 1)
	mon := StartMonitorClock(st, "hbm", 20*time.Millisecond, 2*time.Millisecond, func(id string) { expired <- id }, SystemClock)
	defer mon.Stop()
	mon.SetPeers([]string{"ghost"})
	select {
	case id := <-expired:
		if id != "ghost" {
			t.Fatalf("expired peer %q, want ghost", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("lease never expired")
	}
	if got := mHeartbeatMisses.Value(); got < before+1 {
		t.Fatalf("elastic_heartbeat_misses_total = %v, want >= %v", got, before+1)
	}
}
