package elastic

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/tensor"
)

// ---- deterministic fixture -------------------------------------------------
//
// The convergence tests compare an elastic run against a plain-DDP
// reference executing the same schedule. Equality can be exact because
// (a) batches are a pure function of (step, rank, world), so the value
// at rank r is the same no matter which physical worker holds rank r,
// (b) all models initialize from the same seed, and (c) state sync is
// a bitwise copy. The only arithmetic is the collectives themselves,
// which see identical operands at identical ranks in both runs.

const (
	testIn      = 8
	testHidden  = 16
	testClasses = 4
	testBatch   = 8
	testLR      = 0.1
	testMom     = 0.9
	// Small bucket cap so the reducer exercises several buckets.
	testBucketCap = 1 << 10
)

func testModel() nn.Module { return models.NewMLP(7, testIn, testHidden, testClasses) }

func batchFor(step int64, rank, world int) (*tensor.Tensor, []int) {
	seed := step*1_000_003 + int64(rank)*10_007 + int64(world)*101
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(testBatch, testIn)
	d := x.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, testBatch)
	for i := range labels {
		labels[i] = rng.Intn(testClasses)
	}
	return x, labels
}

func trainStep(d *ddp.DDP, opt optim.Optimizer, step int64, rank, world int) error {
	x, labels := batchFor(step, rank, world)
	out := d.Forward(autograd.Constant(x))
	loss := autograd.CrossEntropyLoss(out, labels)
	if err := d.Backward(loss); err != nil {
		return err
	}
	opt.Step()
	opt.ZeroGrad()
	return nil
}

func flattenParams(m nn.Module) []float32 {
	var out []float32
	for _, p := range m.Parameters() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

func evalLoss(m nn.Module) float32 {
	x, labels := batchFor(1<<20, 0, 1)
	out := m.Forward(autograd.Constant(x))
	return autograd.CrossEntropyLoss(out, labels).Value.Item()
}

// refWorker is one rank of the plain-DDP reference run.
type refWorker struct {
	model nn.Module
	d     *ddp.DDP
	opt   *optim.SGD
}

func newRefWorkers(n int) []*refWorker {
	ws := make([]*refWorker, n)
	for i := range ws {
		m := testModel()
		opt := optim.NewSGD(m.Parameters(), testLR)
		opt.Momentum = testMom
		ws[i] = &refWorker{model: m, opt: opt}
	}
	return ws
}

// runRefPhase steps workers[0..len) in lockstep from step `start` to
// `end` using fresh in-proc groups of the matching world size.
func runRefPhase(t *testing.T, workers []*refWorker, start, end int64) {
	t.Helper()
	world := len(workers)
	groups := comm.NewInProcGroups(world, comm.Options{})
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := range workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := workers[r]
			if w.d == nil {
				// Mirror the elastic agent: state is aligned before the
				// wrapper exists (same seed here, SyncState there), so
				// the constructor broadcast is skipped — late phases mix
				// fresh wrappers with group swaps, which submit no
				// collectives to pair with it.
				d, err := ddp.New(w.model, groups[r], ddp.Options{BucketCapBytes: testBucketCap, SkipInitialBroadcast: true})
				if err != nil {
					errs[r] = err
					return
				}
				w.d = d
			} else if err := w.d.SetProcessGroup(groups[r]); err != nil {
				errs[r] = err
				return
			}
			for s := start; s < end; s++ {
				if err := trainStep(w.d, w.opt, s, r, world); err != nil {
					errs[r] = fmt.Errorf("ref step %d: %w", s, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	for _, g := range groups {
		g.Close()
	}
}

// testConfig builds an agent config over a shared store and registry.
func testConfig(st store.Store, reg *comm.InProcRegistry, id string, minW, maxW int) Config {
	return Config{
		Store:             st,
		ID:                id,
		MinWorld:          minW,
		MaxWorld:          maxW,
		Grace:             400 * time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
		// Generous lease: a goroutine starved under -race with the
		// full suite running in parallel must not be declared dead.
		LeaseTimeout: time.Second,
		PollInterval: 2 * time.Millisecond,
		RoundTimeout: 5 * time.Second,
		Builder:      &InProcBuilder{Registry: reg},
		Replica:      ddpReplica(ddp.Options{BucketCapBytes: testBucketCap}),
	}
}

// ddpReplica is the tests' Config.Replica for replicated training: DDP
// with the given options (the agent aligned the replicas already, so no
// constructor broadcast) plus the fixture's momentum SGD.
func ddpReplica(opts ddp.Options) func(nn.Module, comm.ProcessGroup) (replica.Replica, error) {
	opts.SkipInitialBroadcast = true
	return func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		opt := optim.NewSGD(m.Parameters(), testLR)
		opt.Momentum = testMom
		return ddp.NewReplica(m, pg, opts, opt)
	}
}

type testWorker struct {
	agent *Agent
	model nn.Module
}

func newTestWorker(t *testing.T, cfg Config) *testWorker {
	t.Helper()
	m := testModel()
	a, err := NewAgent(cfg, m)
	if err != nil {
		t.Fatalf("NewAgent(%s): %v", cfg.ID, err)
	}
	return &testWorker{agent: a, model: m}
}

// replicaStep is the whole training step through the seam — the same
// three calls for every strategy.
func replicaStep(r replica.Replica, x *tensor.Tensor, labels []int) error {
	out := r.Forward(autograd.Constant(x))
	if err := r.Backward(autograd.CrossEntropyLoss(out, labels)); err != nil {
		return err
	}
	r.Step()
	return nil
}

func elasticStep(ctx StepContext) error {
	x, labels := batchFor(ctx.Step, ctx.Rank, ctx.World)
	return replicaStep(ctx.Replica, x, labels)
}

// fullWorld wraps a StepFunc to yield at step 0 until all `want`
// workers have formed the group. Under load, a slow-starting worker
// can miss the grace window and the initial round seals short; the
// latecomer's generation bump then reforms the full world — waiting
// for it here keeps the schedule deterministic without depending on
// scheduler timing.
func fullWorld(a *Agent, want int, next StepFunc) StepFunc {
	return func(ctx StepContext) error {
		if ctx.Step == 0 && ctx.World < want {
			return a.AwaitGenerationChange()
		}
		return next(ctx)
	}
}

func assertSameParams(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: parameter count %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: parameters diverge at %d: %v != %v", name, i, got[i], want[i])
		}
	}
}

// ---- rendezvous ------------------------------------------------------------

func TestRendezvousAssignsRanks(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	const world = 4
	cfg := Config{Store: st, MinWorld: world, MaxWorld: world, PollInterval: time.Millisecond}
	var wg sync.WaitGroup
	assigns := make([]*Assignment, world)
	errs := make([]error, world)
	for i := 0; i < world; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := NewRendezvous(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			assigns[i], errs[i] = r.Join(Member{ID: fmt.Sprintf("w%d", i), Step: int64(i)})
		}(i)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for i, a := range assigns {
		if errs[i] != nil {
			t.Fatalf("join %d: %v", i, errs[i])
		}
		if a.World != world || a.Generation != 0 {
			t.Fatalf("join %d: got world %d gen %d", i, a.World, a.Generation)
		}
		if seen[a.Rank] {
			t.Fatalf("rank %d assigned twice", a.Rank)
		}
		seen[a.Rank] = true
		if len(a.Members) != world {
			t.Fatalf("join %d: %d members", i, len(a.Members))
		}
	}
}

func TestRendezvousLateArrivalForcesNextGeneration(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	cfg := Config{Store: st, MinWorld: 2, MaxWorld: 3, PollInterval: time.Millisecond}
	r0, _ := NewRendezvous(cfg)
	r1, _ := NewRendezvous(cfg)

	var wg sync.WaitGroup
	first := make([]*Assignment, 2)
	for i, r := range []*Rendezvous{r0, r1} {
		wg.Add(1)
		go func(i int, r *Rendezvous) {
			defer wg.Done()
			a, err := r.Join(Member{ID: fmt.Sprintf("w%d", i)})
			if err != nil {
				t.Errorf("join: %v", err)
				return
			}
			first[i] = a
		}(i, r)
	}
	wg.Wait()
	if first[0] == nil || first[0].World != 2 || first[0].Generation != 0 {
		t.Fatalf("initial round: %+v", first[0])
	}

	// A latecomer lands in the sealed round, bumps the generation, and
	// the incumbents (told by the gen watch) rejoin alongside it.
	rl, _ := NewRendezvous(cfg)
	results := make([]*Assignment, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		a, err := rl.Join(Member{ID: "late"})
		if err != nil {
			t.Errorf("late join: %v", err)
			return
		}
		results[2] = a
	}()
	for i, r := range []*Rendezvous{r0, r1} {
		wg.Add(1)
		go func(i int, r *Rendezvous) {
			defer wg.Done()
			if _, err := r.WaitGenerationAbove(0); err != nil {
				t.Errorf("watch: %v", err)
				return
			}
			a, err := r.Join(Member{ID: fmt.Sprintf("w%d", i)})
			if err != nil {
				t.Errorf("rejoin: %v", err)
				return
			}
			results[i] = a
		}(i, r)
	}
	wg.Wait()
	for i, a := range results {
		if a == nil {
			t.Fatalf("worker %d has no assignment", i)
		}
		if a.World != 3 {
			t.Fatalf("worker %d: world %d after scale-up", i, a.World)
		}
		if a.Generation < 1 {
			t.Fatalf("worker %d: generation did not advance: %d", i, a.Generation)
		}
	}
}

// TestRendezvousStandbyParksWhenFull: a worker arriving at a full
// round must not force reconfiguration churn on the healthy group; it
// parks until a membership change opens a slot.
func TestRendezvousStandbyParksWhenFull(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	cfg := Config{Store: st, MinWorld: 2, MaxWorld: 2, PollInterval: time.Millisecond}
	r0, _ := NewRendezvous(cfg)
	r1, _ := NewRendezvous(cfg)
	rs, _ := NewRendezvous(cfg)

	var wg sync.WaitGroup
	for i, r := range []*Rendezvous{r0, r1} {
		wg.Add(1)
		go func(i int, r *Rendezvous) {
			defer wg.Done()
			if _, err := r.Join(Member{ID: fmt.Sprintf("w%d", i)}); err != nil {
				t.Errorf("join: %v", err)
			}
		}(i, r)
	}
	wg.Wait()

	parked := make(chan *Assignment, 1)
	go func() {
		a, err := rs.Join(Member{ID: "standby"})
		if err != nil {
			t.Errorf("standby join: %v", err)
			return
		}
		parked <- a
	}()
	time.Sleep(150 * time.Millisecond)
	if g, err := r0.CurrentGeneration(); err != nil || g != 0 {
		t.Fatalf("standby caused churn: gen %d err %v", g, err)
	}
	select {
	case a := <-parked:
		t.Fatalf("standby joined a full round: %+v", a)
	default:
	}

	// A member departs (bumps the generation); the standby takes the
	// freed slot alongside the remaining member.
	if _, err := r0.ProposeGeneration(0); err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := r1.Join(Member{ID: "w1"}); err != nil {
			t.Errorf("rejoin: %v", err)
		}
	}()
	select {
	case a := <-parked:
		if a.World != 2 || a.Generation < 1 {
			t.Fatalf("standby assignment %+v", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never admitted after a slot opened")
	}
}

// TestRendezvousCleansUpOldRounds: sealing a round garbage-collects
// rounds cleanupLag generations behind it.
func TestRendezvousCleansUpOldRounds(t *testing.T) {
	st := store.NewInMem(50 * time.Millisecond)
	defer st.Close()
	cfg := Config{Store: st, MinWorld: 1, MaxWorld: 1, PollInterval: time.Millisecond}
	r, _ := NewRendezvous(cfg)
	last := 0
	for i := 0; i < cleanupLag+3; i++ {
		a, err := r.Join(Member{ID: "solo"})
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		last = a.Generation
		if _, err := r.ProposeGeneration(a.Generation); err != nil {
			t.Fatal(err)
		}
	}
	// Round 0 is far behind the last seal; its keys must be gone.
	if n, _ := st.Add(r.countKey(0), 0); n != 0 {
		t.Fatalf("round 0 count survived: %d", n)
	}
	if _, err := st.Get(r.memberKey(0, 0)); err == nil {
		t.Fatal("round 0 member record survived cleanup")
	}
	// The most recent sealed round is intact.
	if _, err := st.Get(r.sealKey(last)); err != nil {
		t.Fatalf("latest round's seal missing: %v", err)
	}
}

// ---- heartbeat -------------------------------------------------------------

func TestHeartbeatTimeoutDetection(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	const prefix = "elastic"
	alive := StartHeartbeat(st, prefix, "alive", 5*time.Millisecond)
	defer alive.Stop()
	doomed := StartHeartbeat(st, prefix, "doomed", 5*time.Millisecond)

	var mu sync.Mutex
	var expired []string
	mon := StartMonitor(st, prefix, 60*time.Millisecond, 3*time.Millisecond, func(id string) {
		mu.Lock()
		expired = append(expired, id)
		mu.Unlock()
	})
	defer mon.Stop()
	mon.SetPeers([]string{"alive", "doomed"})

	time.Sleep(100 * time.Millisecond) // both well within lease
	mu.Lock()
	if len(expired) != 0 {
		mu.Unlock()
		t.Fatalf("false positive: %v", expired)
	}
	mu.Unlock()

	doomed.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := append([]string(nil), expired...)
		mu.Unlock()
		if len(got) == 1 && got[0] == "doomed" {
			break
		}
		if len(got) > 1 {
			t.Fatalf("unexpected expiries: %v", got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease expiry not detected; got %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- agent scenarios -------------------------------------------------------

// TestAgentCleanScaleDown: 3 workers; one leaves cleanly after step K.
// Survivors reconfigure and finish at world 2, matching a reference run
// that switches world size at the same step.
func TestAgentCleanScaleDown(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 3 // leaver's last completed step
	)

	workers := make([]*testWorker, 3)
	for i := range workers {
		workers[i] = newTestWorker(t, testConfig(st, reg, fmt.Sprintf("w%d", i), 2, 3))
	}
	victim := workers[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *testWorker) {
			defer wg.Done()
			steps := int64(total)
			step := fullWorld(w.agent, 3, func(ctx StepContext) error {
				if w == victim && ctx.Step == k {
					w.agent.Leave() // departs after completing this step
				}
				return elasticStep(ctx)
			})
			errs[i] = w.agent.Run(steps, step)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for _, w := range workers[:2] {
		if got := w.agent.Step(); got != total {
			t.Fatalf("survivor finished at step %d, want %d", got, total)
		}
	}

	// Reference: world 3 for steps [0,k], world 2 afterwards.
	ref := newRefWorkers(3)
	runRefPhase(t, ref, 0, k+1)
	runRefPhase(t, ref[:2], k+1, total)

	want := flattenParams(ref[0].model)
	assertSameParams(t, "survivor0-vs-ref", flattenParams(workers[0].model), want)
	assertSameParams(t, "survivor1-vs-ref", flattenParams(workers[1].model), want)
	if el, rl := evalLoss(workers[0].model), evalLoss(ref[0].model); el != rl {
		t.Fatalf("eval loss diverged: elastic %v vs reference %v", el, rl)
	}
}

// TestAgentScaleUpWithStateSync: 2 workers train; at step K a third
// joins, bumping the generation. All three reconfigure, the joiner
// receives model+optimizer state, and the run matches a reference that
// widens to world 3 at exactly step K.
func TestAgentScaleUpWithStateSync(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 4 // first step executed at world 3
	)

	w0 := newTestWorker(t, testConfig(st, reg, "w0", 2, 3))
	w1 := newTestWorker(t, testConfig(st, reg, "w1", 2, 3))
	joiner := newTestWorker(t, testConfig(st, reg, "late", 2, 3))

	startJoiner := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	errs := make([]error, 3)
	incumbent := func(w *testWorker) StepFunc {
		return func(ctx StepContext) error {
			if ctx.World == 2 && ctx.Step == k {
				// Admit the pending joiner deterministically: release
				// it, then yield until its generation bump lands.
				once.Do(func() { close(startJoiner) })
				return w.agent.AwaitGenerationChange()
			}
			return elasticStep(ctx)
		}
	}
	wg.Add(3)
	go func() { defer wg.Done(); errs[0] = w0.agent.Run(total, incumbent(w0)) }()
	go func() { defer wg.Done(); errs[1] = w1.agent.Run(total, incumbent(w1)) }()
	go func() {
		defer wg.Done()
		<-startJoiner
		errs[2] = joiner.agent.Run(total, elasticStep)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Reference: world 2 for [0,k), world 3 from k. The third reference
	// worker adopts the survivors' model and optimizer state, exactly
	// like the elastic joiner does via SyncState.
	ref := newRefWorkers(2)
	runRefPhase(t, ref, 0, k)
	third := newRefWorkers(1)[0]
	if err := nn.CopyParameters(third.model, ref[0].model); err != nil {
		t.Fatalf("copying reference state: %v", err)
	}
	if err := third.opt.SetFlatState(ref[0].opt.FlatState()); err != nil {
		t.Fatalf("copying reference optimizer state: %v", err)
	}
	refWide := append(ref, third)
	runRefPhase(t, refWide, k, total)

	want := flattenParams(refWide[0].model)
	for i, w := range []*testWorker{w0, w1, joiner} {
		assertSameParams(t, fmt.Sprintf("worker%d-vs-ref", i), flattenParams(w.model), want)
	}
	if got := joiner.agent.Step(); got != total {
		t.Fatalf("joiner finished at step %d, want %d", got, total)
	}
}

// TestAgentMidBackwardCrash is the acceptance scenario: one of three
// workers dies mid-iteration (after its forward pass, before gradient
// sync). Survivors observe broken collectives, re-rendezvous at the
// next generation, rebuild the group, restore synchronized state, and
// converge to exactly the loss of an uninterrupted 2-worker run from
// the recovery step onward.
func TestAgentMidBackwardCrash(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 4 // step during which the victim dies
	)

	workers := make([]*testWorker, 3)
	for i := range workers {
		workers[i] = newTestWorker(t, testConfig(st, reg, fmt.Sprintf("w%d", i), 2, 3))
	}
	victim := workers[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *testWorker) {
			defer wg.Done()
			step := fullWorld(w.agent, 3, func(ctx StepContext) error {
				if w == victim && ctx.Step == k {
					// Crash mid-step: forward ran, gradients are about
					// to sync, and the worker vanishes.
					x, _ := batchFor(ctx.Step, ctx.Rank, ctx.World)
					ctx.Replica.Forward(autograd.Constant(x))
					w.agent.Kill()
					return errors.New("simulated crash")
				}
				return elasticStep(ctx)
			})
			errs[i] = w.agent.Run(total, step)
		}(i, w)
	}
	wg.Wait()
	if !errors.Is(errs[2], ErrKilled) {
		t.Fatalf("victim returned %v, want ErrKilled", errs[2])
	}
	for i, err := range errs[:2] {
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if got := workers[i].agent.Step(); got != total {
			t.Fatalf("survivor %d finished at step %d, want %d", i, got, total)
		}
	}

	// Survivors recovered at generation >= 1 with world 2.
	for i, w := range workers[:2] {
		a := w.agent.Assignment()
		if a == nil || a.World != 2 || a.Generation < 1 {
			t.Fatalf("survivor %d final assignment %+v", i, a)
		}
	}

	// Reference: world 3 completed steps [0,k); step k onward runs at
	// world 2 — the in-flight iteration k is retried, no completed
	// progress is lost.
	ref := newRefWorkers(3)
	runRefPhase(t, ref, 0, k)
	runRefPhase(t, ref[:2], k, total)

	want := flattenParams(ref[0].model)
	assertSameParams(t, "survivor0-vs-ref", flattenParams(workers[0].model), want)
	assertSameParams(t, "survivor1-vs-ref", flattenParams(workers[1].model), want)
	if el, rl := evalLoss(workers[0].model), evalLoss(ref[0].model); el != rl {
		t.Fatalf("eval loss diverged: elastic %v vs reference %v", el, rl)
	}
}

// TestAgentHeartbeatTimeoutRecovery: the victim goes silent (stops
// heartbeating and stepping but keeps its connections open), so the
// survivors block inside a collective with no transport error to save
// them. Only the lease expiry can detect this; the monitor then aborts
// the group, survivors re-rendezvous, and training completes at world
// 2 with state intact.
func TestAgentHeartbeatTimeoutRecovery(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 4 // step at which the victim hangs
	)

	workers := make([]*testWorker, 3)
	for i := range workers {
		workers[i] = newTestWorker(t, testConfig(st, reg, fmt.Sprintf("w%d", i), 2, 3))
	}
	victim := workers[2]
	gate := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *testWorker) {
			defer wg.Done()
			step := fullWorld(w.agent, 3, func(ctx StepContext) error {
				if w == victim && ctx.Step == k {
					w.agent.StopHeartbeat() // silent hang: no beats, no steps
					<-gate
					return errors.New("hung worker released")
				}
				return elasticStep(ctx)
			})
			errs[i] = w.agent.Run(total, step)
		}(i, w)
	}

	// Wait for the survivors, then release (and formally kill) the
	// hung worker.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	deadline := time.After(30 * time.Second)
	for workers[0].agent.Step() < total || workers[1].agent.Step() < total {
		select {
		case <-deadline:
			t.Fatalf("survivors did not finish: steps %d, %d",
				workers[0].agent.Step(), workers[1].agent.Step())
		case <-time.After(10 * time.Millisecond):
		}
	}
	victim.agent.Kill()
	close(gate)
	<-done

	for i, err := range errs[:2] {
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}
	if !errors.Is(errs[2], ErrKilled) {
		t.Fatalf("victim returned %v, want ErrKilled", errs[2])
	}

	// The dead worker was recorded for observability.
	if _, err := st.Get("elastic/dead/w2"); err != nil {
		t.Fatalf("dead marker not written: %v", err)
	}

	// Reference: steps [0,k) at world 3; k onward at world 2.
	ref := newRefWorkers(3)
	runRefPhase(t, ref, 0, k)
	runRefPhase(t, ref[:2], k, total)

	want := flattenParams(ref[0].model)
	assertSameParams(t, "survivor0-vs-ref", flattenParams(workers[0].model), want)
	assertSameParams(t, "survivor1-vs-ref", flattenParams(workers[1].model), want)
}

// ---- state sync ------------------------------------------------------------

// TestSyncStateBroadcastsModelAndState: the joiner — which has no
// replica, hence no buffers of the right size — ends up holding the
// source's parameters, optimizer state and residuals, whatever it
// passed in itself.
func TestSyncStateBroadcastsModelAndState(t *testing.T) {
	groups := comm.NewInProcGroups(2, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()

	// Rank 1 holds trained state; rank 0 is a fresh joiner.
	trained := testModel()
	fresh := models.NewMLP(99, testIn, testHidden, testClasses)
	optT := optim.NewSGD(trained.Parameters(), testLR)
	optT.Momentum = testMom
	// Give the trained side distinctive velocity.
	for _, p := range trained.Parameters() {
		p.Grad = tensor.New(p.Value.Shape()...)
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = 0.25
		}
	}
	optT.Step()
	want := replica.State{Optimizer: optT.FlatState(), Residuals: []float32{1, -2, 3}}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	got := make([]replica.State, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		got[0], errs[0] = SyncState(groups[0], 1, fresh, replica.State{Optimizer: []float32{9}})
	}()
	go func() { defer wg.Done(); got[1], errs[1] = SyncState(groups[1], 1, trained, want) }()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	assertSameParams(t, "joiner-vs-source", flattenParams(fresh), flattenParams(trained))
	for r := range got {
		assertSameParams(t, fmt.Sprintf("rank %d optimizer state", r), got[r].Optimizer, want.Optimizer)
		assertSameParams(t, fmt.Sprintf("rank %d residuals", r), got[r].Residuals, want.Residuals)
	}
	if !anyNonZero(got[0].Optimizer) {
		t.Fatal("synced optimizer state is all zeros; momentum was not transferred")
	}
}
