package chaos

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/elastic"
	"repro/internal/fsdp"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trace"
)

// Violation is one invariant breach found after a schedule ran.
type Violation struct {
	// Invariant names the violated check; shrinking preserves it.
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Report is the outcome of running one schedule.
type Report struct {
	Schedule   Schedule    `json:"schedule"`
	Violations []Violation `json:"violations,omitempty"`
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Has reports whether some violation names the given invariant —
// the equivalence shrinking preserves.
func (r *Report) Has(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// String renders the report for test logs: "chaos: ok" or one line
// per violation.
func (r *Report) String() string {
	if !r.Failed() {
		return "chaos: ok"
	}
	s := fmt.Sprintf("chaos: %d violation(s):", len(r.Violations))
	for _, v := range r.Violations {
		s += fmt.Sprintf("\n  [%s] %s", v.Invariant, v.Detail)
	}
	return s
}

// Options tweaks a run. The zero value is the production configuration.
type Options struct {
	// PlantResidualResetBug re-introduces the historical
	// residuals-zeroed-on-rebuild bug (ddp's test-only flag) — the
	// harness's own canary: the bitwise invariant must catch it.
	PlantResidualResetBug bool
}

// Run executes a (normal-form) schedule against a real in-process
// elastic cluster and checks every invariant. It never panics on
// invariant failure: inspect Report.Violations.
func Run(s Schedule) *Report { return RunWithOptions(s, Options{}) }

// Invariant names used in Report.Violations.
const (
	invSchedule   = "schedule"   // schedule not executable
	invHarness    = "harness"    // the harness itself failed (timeout, setup)
	invExit       = "exit"       // a worker exited differently than planned
	invGenLinear  = "gen-linear" // generation history not a linear CAS chain
	invTrajectory = "trajectory" // realized (step, world) history diverged
	invDurability = "durability" // a committed checkpoint step was lost
	invBitwise    = "bitwise"    // survivors/reference state disagreement
	invSpans      = "spans"      // recovery span not tiled by its phases
	invStraggler  = "straggler"  // viable straggler not flagged
)

// errEventInjected is what an injected fault's StepFunc returns; the
// agent surfaces it as the worker's exit unless a Kill already decided
// the exit.
var errEventInjected = errors.New("chaos: fault injected")

// runBudget bounds one schedule's wall time; past it the run is force
// killed and reported as a harness violation.
const runBudget = 45 * time.Second

// RunWithOptions is Run with knobs.
func RunWithOptions(s Schedule, opts Options) *Report {
	rep := &Report{Schedule: s}
	p, err := analyze(s)
	if err != nil {
		rep.add(invSchedule, err.Error())
		return rep
	}
	dir, err := os.MkdirTemp("", "chaos-ckpt-")
	if err != nil {
		rep.add(invHarness, fmt.Sprintf("temp checkpoint dir: %v", err))
		return rep
	}
	defer os.RemoveAll(dir)

	inner := store.NewInMem(8 * time.Second)
	// Closing the shared store unwinds every goroutine still blocked in
	// it (partitioned delivery helpers included) — the leak-check hinge.
	defer inner.Close()

	e := &engine{
		p:        p,
		opts:     opts,
		rep:      rep,
		inner:    inner,
		rec:      &genRecorder{inner: inner, genKey: "chaos/gen"},
		reg:      comm.NewInProcRegistry(),
		dir:      dir,
		deadline: time.Now().Add(runBudget),
	}
	e.stepLog[0] = map[int64]stepRec{}
	e.stepLog[1] = map[int64]stepRec{}
	e.joinReleased = make([]bool, len(p.joins))

	rdzv, err := elastic.NewRendezvous(elastic.Config{
		Store: e.rec, Prefix: "chaos", PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		rep.add(invHarness, fmt.Sprintf("engine rendezvous: %v", err))
		return rep
	}

	for _, wp := range p.workers {
		if wp.era == 0 && wp.joinStep == -1 {
			if err := e.spawn(wp); err != nil {
				rep.add(invHarness, err.Error())
				e.forceStop()
				e.awaitAll()
				return rep
			}
		}
	}
	ok := e.awaitEra(0)
	var restore int64
	if ok && p.killAll != nil {
		if meta, err := ckpt.LatestMeta(dir); err == nil {
			restore = meta.Step
		} else if !errors.Is(err, ckpt.ErrNoCheckpoint) {
			rep.add(invDurability, fmt.Sprintf("latest checkpoint after kill-all: %v", err))
		}
		e.observedRestore = restore
		// Bump the generation: respawns must not park against the
		// sealed pre-crash round, and any era-0 goroutine still parked
		// in a generation watch gets woken to observe its kill.
		if g, err := rdzv.CurrentGeneration(); err == nil {
			//ddplint:ignore storeerr best-effort wakeup; a lost bump only delays the respawns one round timeout
			rdzv.ProposeGeneration(g)
		}
		for _, wp := range p.workers {
			if wp.era == 1 && wp.joinStep == -1 {
				if err := e.spawn(wp); err != nil {
					rep.add(invHarness, err.Error())
					break
				}
			}
		}
		ok = e.awaitEra(1)
	}
	e.releaseParked()
	if !e.awaitAll() || !ok {
		e.forceStop()
		e.awaitAll()
	}
	e.checkInvariants(restore)
	return rep
}

func (r *Report) add(invariant, detail string) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: detail})
}

// stepRec is one completed training step as observed by the cluster.
type stepRec struct {
	world int
	gen   int
}

type engine struct {
	p    *plan
	opts Options
	rep  *Report

	inner *store.InMem
	rec   *genRecorder
	reg   *comm.InProcRegistry
	dir   string

	deadline        time.Time
	observedRestore int64

	killAllOnce sync.Once

	mu           sync.Mutex
	workers      []*runWorker
	stepLog      [2]map[int64]stepRec
	conflicts    []Violation
	flags        []elastic.StragglerFlag
	joinReleased []bool
}

// runWorker is one spawned (ordinal, era) agent instance.
type runWorker struct {
	plan   workerPlan
	id     string
	agent  *elastic.Agent
	model  nn.Module
	pstore *store.Partitioned
	fault  *faultHook
	tracer *trace.Tracer

	events    []Event
	fired     []bool
	straggles []straggleSpan

	gate     chan struct{} // parked victims block here until released
	gateOnce sync.Once
	done     chan struct{}

	mu     sync.Mutex
	err    error
	parked bool
	// killOnGather arms the sharded mid-step kill: the fsdp
	// TestingOnGather hook fires Kill right before the next ZeRO-3
	// parameter AllGatherV, so peers die blocked inside the gather phase.
	killOnGather bool
}

func (w *runWorker) isParked() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.parked
}

func (w *runWorker) setParked() {
	w.mu.Lock()
	w.parked = true
	w.mu.Unlock()
}

func (w *runWorker) release() { w.gateOnce.Do(func() { close(w.gate) }) }

func (w *runWorker) armGatherKill() {
	w.mu.Lock()
	w.killOnGather = true
	w.mu.Unlock()
}

func (w *runWorker) gatherKillArmed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killOnGather
}

func (w *runWorker) runErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (e *engine) spawn(wp workerPlan) error {
	w := &runWorker{
		plan: wp,
		id:   fmt.Sprintf("w%d", wp.ord),
		gate: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, ev := range e.p.s.Events {
		if e.p.eraOf(ev) != wp.era || ev.Worker != wp.ord {
			continue
		}
		switch ev.Kind {
		case EvKill, EvKillMidStep, EvHang, EvPartition, EvLeave, EvDiskFault, EvSlowDisk:
			w.events = append(w.events, ev)
		}
	}
	w.fired = make([]bool, len(w.events))
	for _, sp := range e.p.straggle {
		if sp.ord == wp.ord && sp.era == wp.era {
			w.straggles = append(w.straggles, sp)
		}
	}
	w.model = chModel()
	w.pstore = store.NewPartitioned(e.rec)
	w.fault = &faultHook{}
	w.tracer = trace.NewTracer()
	a, err := elastic.NewAgent(e.workerConfig(w), w.model)
	if err != nil {
		return fmt.Errorf("chaos: agent %s era %d: %v", w.id, wp.era, err)
	}
	w.agent = a
	e.mu.Lock()
	e.workers = append(e.workers, w)
	e.mu.Unlock()
	go func() {
		err := a.Run(e.p.s.Steps, e.stepFn(w))
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
		close(w.done)
	}()
	return nil
}

func (e *engine) workerConfig(w *runWorker) elastic.Config {
	cfg := elastic.Config{
		Store:    w.pstore,
		ID:       w.id,
		Prefix:   "chaos",
		MinWorld: 1,
		MaxWorld: e.p.maxWorld,
		Grace:    300 * time.Millisecond,
		// Tight liveness so lease-detected faults (hang, partition,
		// disk-fault) resolve in ~1s each.
		HeartbeatInterval: 5 * time.Millisecond,
		LeaseTimeout:      time.Second,
		PollInterval:      2 * time.Millisecond,
		RoundTimeout:      5 * time.Second,
		DrainTimeout:      200 * time.Millisecond,
		MaxRestarts:       12,
		Builder:           &elastic.InProcBuilder{Registry: e.reg, Prefix: "chaos"},
		Replica:           func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) { return e.newReplica(w, m, pg) },
		Tracer:            w.tracer,
	}
	if e.p.s.CkptEvery > 0 {
		cfg.Checkpoint = &elastic.CheckpointConfig{
			Dir:    e.dir,
			Every:  e.p.s.CkptEvery,
			Keep:   2,
			Resume: w.plan.resume,
			Seed:   e.p.s.Seed,
			Fault:  w.fault,
		}
	}
	if len(e.p.straggle) > 0 {
		cfg.Straggler = &elastic.StragglerConfig{
			Window:       4,
			PublishEvery: 2,
			Factor:       2,
			MinPeers:     1,
			MinSamples:   2,
			SelfReported: true,
			OnFlag: func(f elastic.StragglerFlag) {
				e.mu.Lock()
				e.flags = append(e.flags, f)
				e.mu.Unlock()
			},
		}
	}
	return cfg
}

// newReplica is the one place the harness turns a schedule's strategy
// into a replica: DDP + SGD (optionally with the planted residual bug),
// or fsdp with the gather hook that lets a mid-step kill land inside a
// ZeRO-3 parameter AllGatherV.
func (e *engine) newReplica(w *runWorker, m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
	if e.p.s.Strategy == "" {
		r, err := chDDPReplica(m, pg, e.p.s.Codec == "1bit", e.opts.PlantResidualResetBug)
		if err != nil || !e.opts.PlantResidualResetBug {
			return r, err
		}
		return residualResetBug{r}, nil
	}
	st, err := fsdp.ParseStrategy(e.p.s.Strategy)
	if err != nil {
		return nil, err // normal-form schedules only carry zero2/zero3 (walk)
	}
	return fsdp.New(m, pg, fsdp.Options{
		Strategy:             st,
		BucketCapBytes:       chBucketCap,
		LR:                   chLR,
		Momentum:             chMom,
		SkipInitialBroadcast: true,
		TestingOnGather: func(int) {
			if w.gatherKillArmed() {
				w.agent.Kill()
			}
		},
	})
}

// residualResetBug is the recovery half of the planted bug. ddp's
// test-only flag makes a rebuild forget the residuals, but recovery
// captures the source's before any rebind and installs them after, which
// would quietly heal that; dropping them from the install lets every
// reconfiguration zero the error feedback, as the historical bug did.
type residualResetBug struct{ replica.Replica }

func (b residualResetBug) InstallState(st replica.State) error {
	st.Residuals = nil
	return b.Replica.InstallState(st)
}

// stepFn builds the instrumented StepFunc of one worker: fire this
// step's scheduled faults, gate on the planned world size, inject
// straggle delay, train, record.
func (e *engine) stepFn(w *runWorker) elastic.StepFunc {
	return func(ctx elastic.StepContext) error {
		era := w.plan.era
		// A kill-all fires at the first entry any era-0 worker makes
		// into its step; the trigger kills itself with everyone else.
		if e.p.killAll != nil && era == 0 && ctx.Step >= e.p.killAll.Step {
			e.killAllOnce.Do(func() { e.triggerKillAll() })
			return errEventInjected
		}
		for i := range w.events {
			ev := w.events[i]
			if w.fired[i] || ctx.Step < ev.Step {
				continue
			}
			w.fired[i] = true
			switch ev.Kind {
			case EvKill:
				w.agent.Kill()
				return errEventInjected
			case EvKillMidStep:
				// Submit the forward pass so peers are left blocked in
				// the backward collectives, then die. In a sharded run
				// the gather hook kills before a ZeRO-3 parameter
				// AllGatherV instead, so peers die blocked inside the
				// gather phase itself (ZeRO-2 forwards are
				// collective-free; the trailing Kill covers them).
				x, _ := chBatchFor(ctx.Step, e.refRank(ctx), e.refWorld(ctx))
				w.armGatherKill()
				ctx.Replica.Forward(autograd.Constant(x))
				w.agent.Kill()
				return errEventInjected
			case EvHang:
				w.agent.StopHeartbeat()
				w.setParked()
				<-w.gate
				return errEventInjected
			case EvPartition:
				w.pstore.SetPartitioned(true)
				w.setParked()
				<-w.gate
				return errEventInjected
			case EvLeave:
				// Depart after this step completes.
				w.agent.Leave()
			case EvDiskFault:
				w.fault.armFail()
			case EvSlowDisk:
				w.fault.armSlow(ev.SlowMs)
			}
		}
		if exp := e.p.expectedWorld(era, ctx.Step); ctx.World < exp {
			// Short of the planned world: admit any joiner scheduled by
			// now, then yield until the membership changes.
			e.releaseJoins(era, ctx.Step)
			return w.agent.AwaitGenerationChange()
		}
		if err := e.train(ctx, w); err != nil {
			return err
		}
		e.record(era, ctx)
		return nil
	}
}

// refRank/refWorld pick the batch coordinates: codec runs use shared
// rank-independent batches (see chBatchFor).
func (e *engine) refRank(ctx elastic.StepContext) int {
	if e.p.s.Codec == "1bit" {
		return 0
	}
	return ctx.Rank
}

func (e *engine) refWorld(ctx elastic.StepContext) int {
	if e.p.s.Codec == "1bit" {
		return 1
	}
	return ctx.World
}

// train executes one step, injecting any straggle delay into the
// compute-only phase (sleep + forward, which contains no collectives)
// and self-reporting that phase's latency to the straggler detector —
// whole-step wall time would include the collectives, which stall at
// the pace of the slowest rank and so cannot attribute slowness.
func (e *engine) train(ctx elastic.StepContext, w *runWorker) error {
	x, labels := chBatchFor(ctx.Step, e.refRank(ctx), e.refWorld(ctx))
	computeStart := time.Now()
	for _, sp := range w.straggles {
		if ctx.Step >= sp.start && ctx.Step < sp.start+sp.count {
			time.Sleep(time.Duration(sp.slowMs) * time.Millisecond)
		}
	}
	out := ctx.Replica.Forward(autograd.Constant(x))
	compute := time.Since(computeStart)
	if err := ctx.Replica.Backward(autograd.CrossEntropyLoss(out, labels)); err != nil {
		return err
	}
	ctx.Replica.Step()
	if det := w.agent.Straggler(); det != nil {
		det.Record(compute)
	}
	return nil
}

func (e *engine) record(era int, ctx elastic.StepContext) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.stepLog[era]
	if prev, ok := m[ctx.Step]; ok {
		if prev.world != ctx.World {
			e.conflicts = append(e.conflicts, Violation{
				Invariant: invTrajectory,
				Detail: fmt.Sprintf("era %d step %d completed at world %d and world %d",
					era, ctx.Step, prev.world, ctx.World),
			})
		}
		return
	}
	m[ctx.Step] = stepRec{world: ctx.World, gen: ctx.Generation}
}

func (e *engine) releaseJoins(era int, step int64) {
	var spawnList []workerPlan
	e.mu.Lock()
	for i, jp := range e.p.joins {
		if jp.era != era || jp.step > step || e.joinReleased[i] {
			continue
		}
		e.joinReleased[i] = true
		for _, wp := range e.p.workers {
			if wp.ord == jp.ord && wp.era == jp.era && wp.joinStep == jp.step {
				spawnList = append(spawnList, wp)
			}
		}
	}
	e.mu.Unlock()
	for _, wp := range spawnList {
		if err := e.spawn(wp); err != nil {
			e.mu.Lock()
			e.conflicts = append(e.conflicts, Violation{Invariant: invHarness, Detail: err.Error()})
			e.mu.Unlock()
		}
	}
}

func (e *engine) snapshotWorkers() []*runWorker {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*runWorker(nil), e.workers...)
}

func (e *engine) triggerKillAll() {
	for _, w := range e.snapshotWorkers() {
		if w.plan.era == 0 && !w.isParked() {
			w.agent.Kill()
		}
	}
}

// awaitEra blocks until every non-parked instance of the era exited.
// Planned-but-unreleased joiners cannot outlive the era: a survivor
// must pass their join step (and thus spawn them) before it can finish.
func (e *engine) awaitEra(era int) bool {
	for {
		if time.Now().After(e.deadline) {
			e.timeout(fmt.Sprintf("era %d did not finish", era))
			return false
		}
		done := true
		for _, w := range e.snapshotWorkers() {
			if w.plan.era != era || w.isParked() {
				continue
			}
			select {
			case <-w.done:
			default:
				done = false
			}
		}
		if done {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (e *engine) releaseParked() {
	for _, w := range e.snapshotWorkers() {
		if w.isParked() {
			w.agent.Kill()
			w.release()
		}
	}
}

func (e *engine) awaitAll() bool {
	for {
		if time.Now().After(e.deadline) {
			e.timeout("run did not finish")
			return false
		}
		done := true
		for _, w := range e.snapshotWorkers() {
			select {
			case <-w.done:
			default:
				done = false
			}
		}
		if done {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// forceStop kills every worker and opens every gate; combined with the
// deferred store close this unwedges any stuck run.
func (e *engine) forceStop() {
	for _, w := range e.snapshotWorkers() {
		w.agent.Kill()
		w.release()
	}
	// Push the deadline out so the post-force awaitAll can still drain.
	e.mu.Lock()
	e.deadline = time.Now().Add(10 * time.Second)
	e.mu.Unlock()
}

func (e *engine) timeout(what string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range e.rep.Violations {
		if v.Invariant == invHarness {
			return // one timeout violation is enough
		}
	}
	e.rep.add(invHarness, fmt.Sprintf("%s within %v: %s", what, runBudget, e.pendingWorkers()))
}

// pendingWorkers names instances that have not exited (diagnostics for
// timeouts). Caller holds e.mu.
func (e *engine) pendingWorkers() string {
	var out string
	for _, w := range e.workers {
		select {
		case <-w.done:
		default:
			out += fmt.Sprintf(" %s/era%d", w.id, w.plan.era)
		}
	}
	if out == "" {
		return " (all exited)"
	}
	return out
}

// ---- fault hook ------------------------------------------------------------

// faultHook is the per-worker checkpoint-disk shim: armFail makes the
// next write error (failing disk), armSlow delays each write (slow
// disk). It runs on the saving goroutine, so the delay stretches the
// save exactly like a slow device would.
type faultHook struct {
	mu     sync.Mutex
	fail   bool
	slowMs int
}

func (f *faultHook) armFail() {
	f.mu.Lock()
	f.fail = true
	f.mu.Unlock()
}

func (f *faultHook) armSlow(ms int) {
	f.mu.Lock()
	f.slowMs = ms
	f.mu.Unlock()
}

func (f *faultHook) BeforeWrite(name string) error {
	f.mu.Lock()
	fail, slow := f.fail, f.slowMs
	f.mu.Unlock()
	if slow > 0 {
		time.Sleep(time.Duration(slow) * time.Millisecond)
	}
	if fail {
		return fmt.Errorf("chaos: injected disk fault writing %s", name)
	}
	return nil
}

// ---- generation recorder ---------------------------------------------------

// genRecorder wraps the shared store and records every successful CAS
// on the generation key, in commit order — the raw material of the
// generation-linearity invariant. The lock spans the inner CAS so the
// recorded order is the commit order.
type genRecorder struct {
	inner  store.Store
	genKey string

	mu    sync.Mutex
	swaps [][2]string // (old, new); old "" means created
}

func (g *genRecorder) CompareAndSwap(key string, old, new []byte) (bool, error) {
	if key != g.genKey {
		return g.inner.CompareAndSwap(key, old, new)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ok, err := g.inner.CompareAndSwap(key, old, new)
	if ok && err == nil {
		g.swaps = append(g.swaps, [2]string{string(old), string(new)})
	}
	return ok, err
}

func (g *genRecorder) history() [][2]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][2]string(nil), g.swaps...)
}

func (g *genRecorder) Set(key string, value []byte) error { return g.inner.Set(key, value) }
func (g *genRecorder) Get(key string) ([]byte, error)     { return g.inner.Get(key) }
func (g *genRecorder) Add(key string, delta int64) (int64, error) {
	return g.inner.Add(key, delta)
}
func (g *genRecorder) Wait(keys ...string) error { return g.inner.Wait(keys...) }
func (g *genRecorder) Delete(key string) error   { return g.inner.Delete(key) }
func (g *genRecorder) Watch(key string, prev []byte) ([]byte, error) {
	return g.inner.Watch(key, prev)
}

// GetCancel keeps the recorder cancellation-transparent so mesh builds
// through it stay abortable.
func (g *genRecorder) GetCancel(key string, cancel <-chan struct{}) ([]byte, error) {
	return store.GetCancel(g.inner, key, cancel)
}
