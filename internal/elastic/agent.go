package elastic

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/trace"
)

// StepContext is what a StepFunc sees for one training step. Rank and
// World come from the current assignment — a StepFunc must shard its
// data by them, because both change across reconfigurations.
type StepContext struct {
	// Replica is this rank's data-parallel replica; a step is
	// Forward, Backward, Step on it, whatever the strategy.
	Replica    replica.Replica
	Rank       int
	World      int
	Generation int
	// Step is the global step index about to be executed; it is
	// contiguous across reconfigurations (the interrupted step is
	// retried, and joiners resume from the synced step).
	Step int64
}

// StepFunc executes one training step: forward, backward and the
// optimizer update, all through ctx.Replica. An error signals that the world
// is suspect — the agent reconfigures and retries the step — except
// ErrReconfigure, which reconfigures without proposing a new
// generation (the change is already pending).
type StepFunc func(ctx StepContext) error

// Agent is the elastic training loop: it joins the rendezvous, builds
// the model's replica (Config.Replica), and executes steps, transparently surviving
// membership changes. One Agent corresponds to one worker (one
// goroutine rank in-proc, or one process over TCP).
type Agent struct {
	cfg   Config
	model nn.Module
	rdzv  *Rendezvous
	strag *StragglerDetector // nil unless Config.Straggler is set

	hb  *Heartbeat
	mon *Monitor

	mu     sync.Mutex
	assign *Assignment
	pg     comm.ProcessGroup
	r      replica.Replica // nil before the first formation
	// pending is state restored by a cold start before any replica
	// exists to hold it: what this worker broadcasts if it is elected
	// source of its first round, dropped once the replica is built.
	pending  replica.State
	step     int64
	reconfig bool
	killed   bool
	leaving  bool
	// ck is the checkpoint machinery (nil when Config.Checkpoint is
	// nil); saveCancel is the current generation's save-abandon signal,
	// re-armed by each successful reconfiguration and nil while a
	// membership change is in flight.
	ck         *agentCkpt
	saveCancel chan struct{}
	restored   *ckpt.Meta
	// buildCancel aborts an in-flight GroupBuilder.Build (idempotent);
	// non-nil only while a build is running. Kill and generation
	// watchers close it so a TCP mesh build blocked on a vanished peer
	// unwinds immediately instead of stalling until the store timeout.
	buildCancel func()
}

// NewAgent validates the configuration and prepares a worker. The
// model must be freshly constructed (its parameters get overwritten by
// the first state sync). Call Run to start training.
func NewAgent(cfg Config, model nn.Module) (*Agent, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("elastic: Config.ID is required")
	}
	if cfg.Builder == nil {
		return nil, fmt.Errorf("elastic: Config.Builder is required")
	}
	if cfg.Replica == nil {
		return nil, fmt.Errorf("elastic: Config.Replica is required")
	}
	rdzv, err := NewRendezvous(cfg)
	if err != nil {
		return nil, err
	}
	a := &Agent{cfg: cfg, model: model, rdzv: rdzv}
	if cfg.Straggler != nil {
		a.strag = NewStragglerDetector(cfg.Store, cfg.Prefix, cfg.ID, *cfg.Straggler)
	}
	return a, nil
}

// Tracer returns the configured recovery tracer (nil when tracing is
// disabled) — the handle ddptrain dumps recovery span trees from.
func (a *Agent) Tracer() *trace.Tracer { return a.cfg.Tracer }

// Straggler returns the straggler detector (nil when detection is
// disabled).
func (a *Agent) Straggler() *StragglerDetector { return a.strag }

// Step returns the number of completed training steps.
func (a *Agent) Step() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.step
}

// Assignment returns the current (generation, rank, world) or nil
// before the first rendezvous.
func (a *Agent) Assignment() *Assignment {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.assign
}

// Replica exposes the worker's replica (nil before the first
// rendezvous completes).
func (a *Agent) Replica() replica.Replica {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.r
}

// Kill simulates a hard crash: the heartbeat stops and the process
// group is aborted mid-flight, so peers observe exactly what a SIGKILL
// would produce — silence on the heartbeat and broken collectives. Run
// returns ErrKilled. Used by tests and the --elastic demo.
func (a *Agent) Kill() {
	a.mu.Lock()
	a.killed = true
	hb, pg, bc := a.hb, a.pg, a.buildCancel
	a.mu.Unlock()
	a.cancelSaves() // a save blocked at its commit barrier unwinds too
	if bc != nil {
		bc() // a build in flight unwinds instead of finishing
	}
	if hb != nil {
		hb.Stop()
	}
	if pg != nil {
		_ = comm.AbortGroup(pg)
	}
}

// StopHeartbeat halts only the liveness signal, leaving the worker
// otherwise attached — fault injection for the silent-hang scenario
// (peers must detect via lease expiry, not via broken connections).
func (a *Agent) StopHeartbeat() {
	a.mu.Lock()
	hb := a.hb
	a.mu.Unlock()
	if hb != nil {
		hb.Stop()
	}
}

// Leave requests a clean departure: after the current step completes,
// the agent commits that step's checkpoint if one is in flight, then
// proposes a new generation (so survivors reform without it, from a
// checkpoint that includes the step) and Run returns nil.
func (a *Agent) Leave() {
	a.mu.Lock()
	a.leaving = true
	a.mu.Unlock()
}

// AwaitGenerationChange blocks until the generation moves past the
// current assignment's and then returns ErrReconfigure — sugar for
// StepFuncs that want to yield deterministically to a pending
// membership change (e.g. admitting a known joiner at a fixed step).
func (a *Agent) AwaitGenerationChange() error {
	a.mu.Lock()
	g := a.assign.Generation
	a.mu.Unlock()
	if _, err := a.rdzv.WaitGenerationAbove(g); err != nil {
		return err
	}
	return ErrReconfigure
}

func (a *Agent) isKilled() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.killed
}

func (a *Agent) isLeaving() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.leaving
}

func (a *Agent) reconfigNeeded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconfig
}

// interrupt flags a reconfiguration immediately and aborts the group
// after DrainTimeout, but only if the agent is still on generation g —
// stale watchers and monitors otherwise no-op. The delay lets an
// in-flight step whose collectives are fully fed (e.g. the final step
// a cleanly departing peer took part in) drain to completion, so a
// membership change never rolls back a step that was going to finish;
// a collective genuinely stuck on a vanished peer is freed once the
// window closes.
func (a *Agent) interrupt(g int) {
	a.mu.Lock()
	if a.killed || a.assign == nil || a.assign.Generation != g {
		a.mu.Unlock()
		return
	}
	a.reconfig = true
	a.mu.Unlock()
	// Abandon saves of the interrupted generation: a dead member may
	// never contribute its shard, so their commit barriers can only be
	// satisfied by the next generation's saves. The previous committed
	// checkpoint stays loadable throughout.
	a.cancelSaves()
	go func() {
		a.cfg.Clock.Sleep(a.cfg.DrainTimeout)
		a.mu.Lock()
		if a.killed || a.assign == nil || a.assign.Generation != g {
			a.mu.Unlock()
			return
		}
		pg := a.pg
		a.mu.Unlock()
		if pg != nil {
			_ = comm.AbortGroup(pg)
		}
	}()
}

// onLeaseExpired is the monitor callback: a peer's heartbeat lease ran
// out, so propose a new round and break any collective blocked on it.
func (a *Agent) onLeaseExpired(id string) {
	a.mu.Lock()
	if a.assign == nil {
		a.mu.Unlock()
		return
	}
	g := a.assign.Generation
	a.mu.Unlock()
	a.rdzv.MarkDead(id, g)
	// Drop the dead worker's heartbeat counter so its key does not
	// accumulate; if it is actually alive (false positive) its next
	// beat recreates the counter and monitors see it change.
	//ddplint:ignore storeerr best-effort GC; a live false-positive recreates the key on its next beat
	_ = a.cfg.Store.Delete(HeartbeatKey(a.cfg.Prefix, id))
	if _, err := a.rdzv.ProposeGeneration(g); err != nil {
		return
	}
	a.interrupt(g)
}

// teardownGroup aborts and forgets the current process group.
func (a *Agent) teardownGroup() {
	a.mu.Lock()
	pg := a.pg
	a.pg = nil
	a.mu.Unlock()
	if pg != nil {
		_ = comm.AbortGroup(pg)
	}
}

// reconfigure runs one full recovery round: tear down, re-rendezvous,
// rebuild the group, then — one sequence for every strategy — obtain
// the full training state, rebind the replica to the new group, and
// install the state. The only strategy-dependent decision is where the
// full state comes from (see Member.Sharded): the most advanced
// member's broadcast, or the newest committed checkpoint. It retries
// (bumping the generation) when a round collapses mid-way, up to
// MaxRestarts attempts.
//
// With a Config.Tracer each attempt records one "recovery" span whose
// phases tile it exactly (trace.Span.Phase), so phase durations sum to
// the attempt's duration; the elastic_* gauges and recovery histogram
// are updated on success only.
func (a *Agent) reconfigure() error {
	for attempt := 0; attempt < a.cfg.MaxRestarts; attempt++ {
		if a.isKilled() {
			return ErrKilled
		}
		start := time.Now()
		var root *trace.Span
		if a.cfg.Tracer != nil {
			root = a.cfg.Tracer.StartSpan("recovery")
		}
		root.Phase("teardown")
		a.teardownGroup()
		a.cancelSaves()

		root.Phase("rendezvous")
		r := a.Replica()
		assign, err := a.rdzv.Join(Member{
			ID: a.cfg.ID, Step: a.Step(), Host: a.cfg.Host,
			Sharded: r != nil && !r.HoldsFullState(),
		})
		if err != nil {
			root.Finish()
			return fmt.Errorf("elastic: rendezvous: %w", err)
		}

		// Arm a cancellation handle for the build: if the generation
		// moves past this round while the mesh is still forming (a
		// member died between seal and build), or the agent is killed,
		// the builder unwinds instead of blocking on the dead peer.
		// One watcher goroutine is parked per round; it first cancels
		// any in-flight build, then interrupts the built group —
		// freeing collectives blocked on a dead or departed peer
		// (stale watchers no-op via interrupt's generation guard).
		cancel := make(chan struct{})
		var cancelOnce sync.Once
		closeCancel := func() { cancelOnce.Do(func() { close(cancel) }) }
		a.mu.Lock()
		a.buildCancel = closeCancel
		// A Kill that landed after the loop-top check snapshotted a nil
		// buildCancel and closed nothing; the killed flag is set under
		// this same lock, so re-checking here closes that window.
		killed := a.killed
		a.mu.Unlock()
		if killed {
			closeCancel()
		}
		go func() {
			if _, werr := a.rdzv.WaitGenerationAbove(assign.Generation); werr != nil {
				return // store closed: the job is over
			}
			closeCancel() // harmless after the build completed
			a.interrupt(assign.Generation)
		}()

		root.Phase("mesh-build")
		pg, err := a.cfg.Builder.Build(assign, cancel)
		a.mu.Lock()
		a.buildCancel = nil
		a.mu.Unlock()
		if err != nil {
			root.Finish()
			// The round was viable but the group could not form (e.g. a
			// member died between seal and build); force the next round.
			if _, perr := a.rdzv.ProposeGeneration(assign.Generation); perr != nil {
				return perr
			}
			continue
		}

		a.mu.Lock()
		a.assign = assign
		a.pg = pg
		a.reconfig = false
		a.mu.Unlock()

		// Cover the sync phase: peers that die during the state
		// broadcast must still be detected (the monitor), and
		// generation bumps still break us out of blocked collectives
		// (the round's watcher goroutine armed before the build).
		a.mon.SetPeers(peerIDs(assign, a.cfg.ID))

		// Obtain the full state. A sharded source cannot re-seed anyone:
		// a dead rank's parameter and optimizer shards died with it, so
		// every rank rolls back to the newest committed checkpoint (full
		// state, world-size independent by construction) — a terminal
		// error if there is none, since once the replica has freed its
		// non-owned shards the state exists nowhere else. Otherwise the
		// source broadcasts what it holds; that fails only because a
		// peer vanished, which another round fixes.
		root.Phase("state-sync")
		source, step := assign.Source()
		rollback := assign.Members[source].Sharded
		var st replica.State
		if rollback {
			var meta ckpt.Meta
			st, meta, err = a.restoreNewest()
			step = meta.Step
		} else {
			if r == nil {
				st = a.pending
			} else if assign.Rank == source {
				st, err = r.CaptureState()
			}
			if err == nil {
				st, err = SyncState(pg, source, a.model, st)
			}
		}
		if err != nil {
			root.Finish()
			if a.isKilled() {
				return ErrKilled
			}
			if rollback {
				return fmt.Errorf("elastic: a sharded world recovers only from a committed checkpoint (a lost rank's shards exist nowhere else; configure Config.Checkpoint): %w", err)
			}
			if _, perr := a.rdzv.ProposeGeneration(assign.Generation); perr != nil {
				return perr
			}
			continue
		}
		a.mu.Lock()
		a.step = step
		a.mu.Unlock()
		// Drop any gradients accumulated by an aborted iteration; the
		// retried step must start from a clean slate.
		nn.ZeroGrad(a.model)

		// Rebind: the model's tensors now hold the full parameters, which
		// is what a sharded replica re-derives its shards from. Both
		// branches are local and deterministic, so a failure is terminal.
		root.Phase("rebind")
		if r == nil {
			r, err = a.cfg.Replica(a.model, pg)
		} else {
			err = r.Rebind(pg)
		}
		// Install: optimizer state and error-feedback residuals are
		// training state too, but they live in the replica — so they land
		// only now that every rank holds one laid out for the new world.
		if err == nil {
			root.Phase("install")
			err = r.InstallState(st)
		}
		if err != nil {
			root.Finish()
			return fmt.Errorf("elastic: rebinding replica: %w", err)
		}
		a.mu.Lock()
		a.r = r
		a.pending = replica.State{}
		a.mu.Unlock()
		// The new world is fully formed; its saves get a fresh abandon
		// signal (closed again by the next interrupt or Kill).
		a.armSaves()
		root.Finish()
		mGeneration.With(a.cfg.ID).Set(float64(assign.Generation))
		mWorldSize.With(a.cfg.ID).Set(float64(assign.World))
		mRecoveries.Inc()
		mRecoveryDur.Observe(time.Since(start).Seconds())
		if a.strag != nil {
			a.strag.SetPeers(peerIDs(assign, a.cfg.ID))
		}
		if !rollback && !r.HoldsFullState() {
			// A sharded world seeded by broadcast has no rollback point
			// for the step it stands at: commit one now (formation happens
			// at save points — step 0, or a restored checkpoint's step), so
			// a membership change during early formation — the world
			// growing before the first step — re-shards from this
			// checkpoint instead of failing.
			if err := a.maybeSaveCheckpoint(); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("elastic: giving up after %d failed reconfiguration attempts", a.cfg.MaxRestarts)
}

// peerIDs lists every member id except self.
func peerIDs(a *Assignment, self string) []string {
	ids := make([]string, 0, len(a.Members)-1)
	for _, m := range a.Members {
		if m.ID != self {
			ids = append(ids, m.ID)
		}
	}
	return ids
}

// Run executes training steps until the agent's completed-step count
// reaches totalSteps, surviving worker churn along the way. It returns
// nil on completion or clean departure (Leave), ErrKilled after Kill,
// and a terminal error when recovery is exhausted or the store fails.
func (a *Agent) Run(totalSteps int64, step StepFunc) error {
	// Checkpoint machinery first: a cold-starting worker must hold its
	// restored progress before it registers for its first rendezvous,
	// so the most-advanced-member election sees the restored step.
	if err := a.initCheckpoint(); err != nil {
		return err
	}
	if err := a.restoreCheckpoint(); err != nil {
		return err
	}
	a.mu.Lock()
	a.hb = StartHeartbeatClock(a.cfg.Store, a.cfg.Prefix, a.cfg.ID, a.cfg.HeartbeatInterval, a.cfg.Clock)
	a.mon = StartMonitorClock(a.cfg.Store, a.cfg.Prefix, a.cfg.LeaseTimeout, a.cfg.PollInterval, a.onLeaseExpired, a.cfg.Clock)
	a.mu.Unlock()
	defer func() {
		a.abortCheckpoint() // no-op after a clean finishCheckpoint
		a.mon.Stop()
		a.hb.Stop()
		a.mu.Lock()
		pg := a.pg
		a.pg = nil
		a.mu.Unlock()
		if pg != nil {
			if a.isKilled() {
				_ = comm.AbortGroup(pg)
			} else {
				_ = pg.Close()
			}
		}
	}()

	if err := a.reconfigure(); err != nil {
		return err
	}

	failures := 0 // consecutive step failures without progress
	for a.Step() < totalSteps {
		if a.isKilled() {
			return ErrKilled
		}
		if a.isLeaving() {
			// Commit, then announce (see commitBeforeLeaving).
			err := a.commitBeforeLeaving()
			a.mu.Lock()
			g := a.assign.Generation
			a.mu.Unlock()
			_, _ = a.rdzv.ProposeGeneration(g)
			return err
		}
		if a.reconfigNeeded() || a.generationAdvanced() {
			if err := a.reconfigure(); err != nil {
				return err
			}
			continue
		}

		a.mu.Lock()
		ctx := StepContext{
			Replica:    a.r,
			Rank:       a.assign.Rank,
			World:      a.assign.World,
			Generation: a.assign.Generation,
			Step:       a.step,
		}
		a.mu.Unlock()

		stepStart := time.Now()
		err := step(ctx)
		if a.isKilled() {
			return ErrKilled
		}
		switch {
		case err == nil:
			failures = 0
			if a.strag != nil && !a.cfg.Straggler.SelfReported {
				// Only completed steps enter the straggler window — a
				// failed step's latency measures the failure, not this
				// worker's pace.
				a.strag.Record(time.Since(stepStart))
			}
			a.mu.Lock()
			a.step++
			a.mu.Unlock()
			if cerr := a.maybeSaveCheckpoint(); cerr != nil {
				return cerr
			}
		case err == ErrReconfigure:
			if rerr := a.reconfigure(); rerr != nil {
				return rerr
			}
		default:
			// The step failed — almost certainly a peer vanished
			// mid-collective. Force a new round and retry the step.
			failures++
			if failures > a.cfg.MaxRestarts {
				return fmt.Errorf("elastic: step %d keeps failing after %d recoveries: %w", ctx.Step, failures-1, err)
			}
			if _, perr := a.rdzv.ProposeGeneration(ctx.Generation); perr != nil {
				return perr
			}
			if rerr := a.reconfigure(); rerr != nil {
				return rerr
			}
		}
	}
	return a.finishCheckpoint()
}

// generationAdvanced reports whether the store's generation has moved
// past the current assignment (one store read; the between-steps check
// that makes membership changes take effect at iteration boundaries).
func (a *Agent) generationAdvanced() bool {
	a.mu.Lock()
	g := a.assign.Generation
	a.mu.Unlock()
	cur, err := a.rdzv.CurrentGeneration()
	return err == nil && cur > g
}
