package chaos

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// EventKind names one fault in a schedule's vocabulary.
type EventKind string

// The event vocabulary. Every kind fires at the target worker's entry
// into Event.Step (of the era the event belongs to — see Schedule).
const (
	// EvKill hard-crashes the target before it executes the step.
	EvKill EventKind = "kill"
	// EvKillMidStep runs the forward pass, then crashes — survivors
	// are left blocked inside the step's collectives.
	EvKillMidStep EventKind = "kill-mid-step"
	// EvHang stops the target's heartbeat and parks it, leaving lease
	// expiry as the only detection path.
	EvHang EventKind = "hang"
	// EvPartition cuts the target off from the rendezvous store (its
	// peers keep using it) and parks it.
	EvPartition EventKind = "partition"
	// EvLeave departs cleanly: the target completes the step, proposes
	// the next generation, and exits nil.
	EvLeave EventKind = "leave"
	// EvJoin admits a new worker (a fresh ordinal) at the step.
	EvJoin EventKind = "join"
	// EvKillAll crashes every active worker at the step, then respawns
	// them with Resume — the cold-restart path only checkpoints survive.
	EvKillAll EventKind = "kill-all"
	// EvDiskFault makes the target's checkpoint disk fail from the
	// step on: its next save errors and the worker dies with it.
	EvDiskFault EventKind = "disk-fault"
	// EvSlowDisk delays each of the target's checkpoint writes by
	// SlowMs, stretching saves across membership events.
	EvSlowDisk EventKind = "slow-disk"
	// EvStraggle slows the target by SlowMs per step for Count steps —
	// the straggler detector must flag a viable one.
	EvStraggle EventKind = "straggle"
)

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault.
	Kind EventKind `json:"kind"`
	// Worker is the target's ordinal; worker IDs are "w<ordinal>".
	// Joins introduce the next unused ordinal (Normalize rewrites it).
	Worker int `json:"worker"`
	// Step is the global training step the event fires at.
	Step int64 `json:"step"`
	// Count is how many consecutive steps a straggle slows.
	Count int64 `json:"count,omitempty"`
	// SlowMs is the injected delay: per step for straggle, per
	// checkpoint write for slow-disk.
	SlowMs int `json:"slow_ms,omitempty"`
}

// Schedule is a complete, replayable failure scenario. Events fire
// deterministically at step entries; a kill-all splits the run into two
// eras — era 0 covers steps [0, kill-all step), era 1 re-executes from
// the restored checkpoint step to the end — and an event belongs to
// era 1 exactly when its Step is at or past the kill-all step.
type Schedule struct {
	// Seed records how the schedule was generated; informational.
	Seed int64 `json:"seed"`
	// World is the initial world size.
	World int `json:"world"`
	// Steps is the number of training steps the run must complete.
	Steps int64 `json:"steps"`
	// Codec selects the gradient codec: "" for exact allreduce, "1bit"
	// for wire-level 1-bit compression with error feedback (batches are
	// then rank-independent so residuals stay comparable across ranks).
	Codec string `json:"codec,omitempty"`
	// Strategy selects the data-parallel engine: "" for DDP, "zero2" or
	// "zero3" for sharded data parallelism (internal/fsdp). A sharded
	// world recovers every membership change by rolling back to the
	// newest committed checkpoint (a lost rank's shards are gone), so
	// sharded schedules force CkptEvery to 1 — membership events land on
	// step boundaries, each boundary is a committed save point, and the
	// rollback restores exactly the live state: no step ever re-executes
	// and the plan's once-per-step world trajectory stays valid. For the
	// same reason the codec and the disk events are dropped: stale
	// error-feedback residuals and saves that die or straddle a
	// membership change would legally roll survivors behind steps they
	// already completed.
	Strategy string `json:"strategy,omitempty"`
	// CkptEvery saves a checkpoint every N completed steps (0: none).
	CkptEvery int64 `json:"ckpt_every,omitempty"`
	// Events is the fault list, ordered by Step.
	Events []Event `json:"events,omitempty"`
}

// Bounds keeping schedules executable in a test-sized budget.
const (
	minWorldBound = 2
	maxWorldBound = 4
	minStepsBound = 2
	maxStepsBound = 12
	maxEvents     = 6
	// maxExpensive caps events whose detection needs a full lease
	// expiry (hang, partition, disk-fault) — each costs ~1s wall time.
	maxExpensive = 2
	minStraggleN = 1
	maxStraggleN = 6
	minSlowMs    = 1
	maxSlowMs    = 60
	maxDiskMs    = 300
)

// exitKind is the exit a worker instance is expected to produce.
type exitKind int

const (
	exitClean exitKind = iota // nil error, ran to the end (or left)
	exitKilled
	exitError // non-nil, non-ErrKilled (disk-fault victims)
)

// workerPlan is one engine spawn: an (ordinal, era) instance with its
// predicted fate.
type workerPlan struct {
	ord      int
	era      int
	joinStep int64 // event step admitting it; -1 for initial/respawned
	resume   bool  // cold-start restore from the checkpoint dir
	exit     exitKind
	// exitStep is the completed-step count the instance must hold on a
	// clean exit (-1: not checked).
	exitStep int64
	// parked instances (hang/partition victims) block until the engine
	// releases them at the end of the run.
	parked bool
}

// straggleSpan is a straggle event with its viability verdict: only a
// span long and stable enough that the detector MUST flag it turns
// into a positive assertion.
type straggleSpan struct {
	ord    int
	era    int
	start  int64
	count  int64
	slowMs int
	viable bool
}

// plan is the trajectory predicted from a schedule: the world size of
// every step in every era, the respawn set, and each worker instance's
// expected fate. The invariants compare the realized run against it.
type plan struct {
	s        Schedule
	killAll  *Event // nil: single era
	end0     int64  // era 0 covers steps [0, end0)
	world0   []int  // world per step, era 0 (len end0)
	world1   []int  // world per step, era 1 (len Steps; nil: no era 1)
	respawn  []int  // ordinals respawned after the kill-all
	workers  []workerPlan
	joins    []joinPlan
	straggle []straggleSpan
	maxWorld int // peak concurrent world across the run
}

type joinPlan struct {
	ord  int
	era  int
	step int64
}

// eraOf places an event in its era (see Schedule).
func (p *plan) eraOf(ev Event) int {
	if p.killAll != nil && ev.Kind != EvKillAll && ev.Step >= p.killAll.Step {
		return 1
	}
	return 0
}

// expectedWorld is the world size step must complete at in era.
func (p *plan) expectedWorld(era int, step int64) int {
	if era == 0 {
		if step < int64(len(p.world0)) {
			return p.world0[step]
		}
		return 0
	}
	if step < int64(len(p.world1)) {
		return p.world1[step]
	}
	return 0
}

// clampI bounds v into [lo, hi].
func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Normalize clamps a schedule into the executable envelope and drops
// events that cannot fire (dead or unknown targets, steps out of
// range, joins beyond the world cap, disk faults with no save to hit,
// second kill-alls, expensive events beyond the budget). The result
// always passes Validate. Generate and FromBytes both normalize, so
// every schedule the fuzzer or the generator produces is runnable.
func Normalize(s Schedule) Schedule {
	// Clamping inside walk can move an event's step after the sort (a
	// kill-all at step 0 becomes step 1, a join likewise), leaving the
	// kept list out of step order; walking again from the re-sorted
	// form converges — values are in bounds after one pass and event
	// drops are monotone, so a handful of passes reaches a fixpoint.
	out, _ := walk(s)
	for i := 0; i < 2+maxEvents; i++ {
		next, _ := walk(out)
		if reflect.DeepEqual(next, out) {
			break
		}
		out = next
	}
	return out
}

// Validate checks that a schedule is already in normal form — the
// contract for every schedule the engine runs: corpus entries and
// shrunk reproducers must re-execute verbatim rather than be silently
// repaired — and returns the plan the engine executes against.
func Validate(s Schedule) (*plan, error) {
	n, p := walk(s)
	if !reflect.DeepEqual(n, s) {
		return nil, fmt.Errorf("chaos: schedule not in normal form (Normalize changes it)")
	}
	return p, nil
}

// walk simulates a schedule's effect on the membership timeline,
// dropping events that cannot fire and clamping fields into bounds. It
// returns the repaired schedule and its plan; a schedule in normal form
// comes back unchanged.
func walk(s Schedule) (Schedule, *plan) {
	s.World = clampI(s.World, minWorldBound, maxWorldBound)
	s.Steps = clamp64(s.Steps, minStepsBound, maxStepsBound)
	if s.Codec != "" && s.Codec != "1bit" {
		s.Codec = "1bit"
	}
	s.CkptEvery = clamp64(s.CkptEvery, 0, s.Steps)
	if s.Strategy != "" && s.Strategy != "zero2" && s.Strategy != "zero3" {
		s.Strategy = "zero3"
	}
	if s.Strategy != "" {
		s.Codec = ""
		s.CkptEvery = 1
	}

	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })

	p := &plan{s: s, maxWorld: s.World}
	// First pass: locate the kill-all (at most one, step >= 1).
	var kept []Event
	for _, ev := range events {
		if ev.Kind != EvKillAll {
			kept = append(kept, ev)
			continue
		}
		ev.Worker, ev.Count, ev.SlowMs = 0, 0, 0
		ev.Step = clamp64(ev.Step, 1, s.Steps-1)
		if p.killAll != nil {
			continue
		}
		ka := ev
		p.killAll = &ka
		kept = append(kept, ev)
	}
	events = kept
	p.end0 = s.Steps
	if p.killAll != nil {
		p.end0 = p.killAll.Step
	}

	// Second pass: validate each event against the simulated active
	// set of its era, clamping fields and rewriting join ordinals.
	active := map[int]bool{}
	for i := 0; i < s.World; i++ {
		active[i] = true
	}
	nextOrd := s.World
	expensive := 0
	kept = kept[:0]
	// departAt collects (era, step) → ordinals whose removal takes
	// effect before that step completes (kills, hangs, partitions, and
	// disk-fault victims at their fatal save point).
	departBefore := map[[2]int64][]int{}
	departAfter := map[[2]int64][]int{}
	arrive := map[[2]int64][]int{}
	era := 0
	eraEnd := func(era int) int64 {
		if era == 0 {
			return p.end0
		}
		return s.Steps
	}
	respawnTaken := false
	takeRespawn := func() {
		if respawnTaken {
			return
		}
		respawnTaken = true
		for o := range active {
			p.respawn = append(p.respawn, o)
		}
		sort.Ints(p.respawn)
	}
	for _, ev := range events {
		if p.killAll != nil && ev.Kind != EvKillAll && ev.Step >= p.killAll.Step && era == 0 {
			// Crossing into era 1: everyone active respawns.
			takeRespawn()
			era = 1
		}
		ok := true
		switch ev.Kind {
		case EvKillAll:
			takeRespawn()
			era = 1
		case EvKill, EvKillMidStep, EvHang, EvPartition:
			ev.Count, ev.SlowMs = 0, 0
			ev.Step = clamp64(ev.Step, 0, eraEnd(era)-1)
			if !active[ev.Worker] || len(active) <= 1 {
				ok = false
				break
			}
			if ev.Kind == EvHang || ev.Kind == EvPartition {
				if expensive >= maxExpensive {
					ok = false
					break
				}
				expensive++
			}
			delete(active, ev.Worker)
			key := [2]int64{int64(era), ev.Step}
			departBefore[key] = append(departBefore[key], ev.Worker)
			parked := ev.Kind == EvHang || ev.Kind == EvPartition
			p.setWorkerExit(ev.Worker, era, exitKilled, -1, parked)
		case EvLeave:
			ev.Count, ev.SlowMs = 0, 0
			ev.Step = clamp64(ev.Step, 0, eraEnd(era)-1)
			if !active[ev.Worker] || len(active) <= 1 {
				ok = false
				break
			}
			delete(active, ev.Worker)
			key := [2]int64{int64(era), ev.Step}
			departAfter[key] = append(departAfter[key], ev.Worker)
			p.setWorkerExit(ev.Worker, era, exitClean, ev.Step+1, false)
		case EvJoin:
			ev.Count, ev.SlowMs = 0, 0
			ev.Step = clamp64(ev.Step, 1, eraEnd(era)-1)
			ev.Worker = nextOrd
			if len(active) >= maxWorldBound {
				ok = false
				break
			}
			active[nextOrd] = true
			key := [2]int64{int64(era), ev.Step}
			arrive[key] = append(arrive[key], nextOrd)
			p.joins = append(p.joins, joinPlan{ord: nextOrd, era: era, step: ev.Step})
			p.workers = append(p.workers, workerPlan{
				ord: nextOrd, era: era, joinStep: ev.Step,
				exit: exitClean, exitStep: s.Steps,
			})
			nextOrd++
		case EvDiskFault:
			ev.Count, ev.SlowMs = 0, 0
			ev.Step = clamp64(ev.Step, 0, eraEnd(era)-1)
			// It needs checkpointing (non-sharded), an active non-final
			// target, and expensive budget.
			if s.CkptEvery <= 0 || s.Strategy != "" || !active[ev.Worker] || len(active) <= 1 || expensive >= maxExpensive {
				ok = false
				break
			}
			// The victim dies at its first save after arming: the
			// smallest multiple of CkptEvery at or above Step+1.
			fatal := ((ev.Step + s.CkptEvery) / s.CkptEvery) * s.CkptEvery
			if fatal > eraEnd(era) {
				ok = false // no save point before the era ends
				break
			}
			expensive++
			delete(active, ev.Worker)
			if fatal < eraEnd(era) {
				key := [2]int64{int64(era), fatal}
				departBefore[key] = append(departBefore[key], ev.Worker)
			}
			p.setWorkerExit(ev.Worker, era, exitError, -1, false)
		case EvSlowDisk:
			ev.Count = 0
			ev.SlowMs = clampI(ev.SlowMs, minSlowMs, maxDiskMs)
			ev.Step = clamp64(ev.Step, 0, eraEnd(era)-1)
			// It needs checkpointing (non-sharded) and an active target.
			ok = s.CkptEvery > 0 && s.Strategy == "" && active[ev.Worker]
		case EvStraggle:
			ev.Count = clamp64(ev.Count, minStraggleN, maxStraggleN)
			ev.SlowMs = clampI(ev.SlowMs, minSlowMs, maxSlowMs)
			ev.Step = clamp64(ev.Step, 0, eraEnd(era)-1)
			if !active[ev.Worker] {
				ok = false
				break
			}
			p.straggle = append(p.straggle, straggleSpan{
				ord: ev.Worker, era: era, start: ev.Step, count: ev.Count, slowMs: ev.SlowMs,
			})
		default:
			ok = false
		}
		if ok {
			kept = append(kept, ev)
			if len(kept) >= maxEvents {
				break
			}
		}
	}
	if len(kept) == 0 {
		kept = nil // canonical empty form, so Normalize is idempotent
	}
	s.Events = kept
	if p.killAll != nil {
		takeRespawn()
	}

	// Initial-world instances (era 0).
	for o := 0; o < s.World; o++ {
		if p.hasWorker(o, 0) {
			continue
		}
		exit, exitStep := exitClean, s.Steps
		p.workers = append(p.workers, workerPlan{
			ord: o, era: 0, joinStep: -1, resume: s.CkptEvery > 0,
			exit: exit, exitStep: exitStep,
		})
	}
	// A kill-all converts every era-0 instance still running at its
	// step into a killed one, and spawns the era-1 respawns.
	if p.killAll != nil {
		for i := range p.workers {
			w := &p.workers[i]
			if w.era == 0 && w.exit == exitClean && w.exitStep == s.Steps {
				w.exit = exitKilled
				w.exitStep = -1
			}
		}
		for _, o := range p.respawn {
			if p.hasWorker(o, 1) {
				continue
			}
			p.workers = append(p.workers, workerPlan{
				ord: o, era: 1, joinStep: -1, resume: true,
				exit: exitClean, exitStep: s.Steps,
			})
		}
	}

	// Timeline pass: world per step per era.
	p.world0 = worldTimeline(0, p.end0, initialSet(s.World), arrive, departBefore, departAfter)
	if p.killAll != nil {
		rs := map[int]bool{}
		for _, o := range p.respawn {
			rs[o] = true
		}
		p.world1 = worldTimeline(1, s.Steps, rs, arrive, departBefore, departAfter)
	}
	for _, w := range p.world0 {
		if w > p.maxWorld {
			p.maxWorld = w
		}
	}
	for _, w := range p.world1 {
		if w > p.maxWorld {
			p.maxWorld = w
		}
	}

	// Straggle viability: the detector is only REQUIRED to flag a span
	// that is long enough, fully executed, and free of membership churn
	// (churn pauses stepping but must not unflag — it just voids the
	// obligation, keeping the positive assertion race-free).
	for i := range p.straggle {
		sp := &p.straggle[i]
		// Under ZeRO-3 the forward itself gathers parameters, so a
		// straggler's sleep stalls every peer inside the same collective
		// and the world's recorded compute median absorbs the delay
		// — the fault still injects, but the flag obligation is voided.
		// ZeRO-2's forward gathers only what the last save's Materialize
		// left unresident — at a world's first step — so it stands.
		sp.viable = sp.count >= 4 && sp.start+sp.count <= eraEnd(sp.era) && s.Strategy != "zero3"
		wt := p.world0
		if sp.era == 1 {
			wt = p.world1
		}
		for st := sp.start; sp.viable && st < sp.start+sp.count; st++ {
			// At world 2 the world median averages victim and peer, so
			// own > Factor×world is arithmetically unreachable; only a
			// world of 3+ (median = a healthy peer) can be obligated.
			if wt[st] < 3 {
				sp.viable = false
			}
			if st > sp.start && wt[st] != wt[sp.start] {
				sp.viable = false
			}
		}
		// The victim must survive the span (it may die later).
		if sp.viable {
			for _, w := range p.workers {
				if w.ord == sp.ord && w.era == sp.era && w.exit != exitClean {
					sp.viable = false
				}
			}
		}
	}

	p.s = s
	return s, p
}

func initialSet(n int) map[int]bool {
	m := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		m[i] = true
	}
	return m
}

// worldTimeline computes the completed-step world sizes of one era.
func worldTimeline(era int, end int64, activeStart map[int]bool, arrive, departBefore, departAfter map[[2]int64][]int) []int {
	active := make(map[int]bool, len(activeStart))
	for o := range activeStart {
		active[o] = true
	}
	out := make([]int, end)
	for s := int64(0); s < end; s++ {
		key := [2]int64{int64(era), s}
		for _, o := range arrive[key] {
			active[o] = true
		}
		for _, o := range departBefore[key] {
			delete(active, o)
		}
		out[s] = len(active)
		for _, o := range departAfter[key] {
			delete(active, o)
		}
	}
	return out
}

func (p *plan) hasWorker(ord, era int) bool {
	for _, w := range p.workers {
		if w.ord == ord && w.era == era {
			return true
		}
	}
	return false
}

// setWorkerExit records (or creates) the fate of an (ordinal, era)
// instance already introduced by the initial world or a join.
func (p *plan) setWorkerExit(ord, era int, exit exitKind, exitStep int64, parked bool) {
	for i := range p.workers {
		if p.workers[i].ord == ord && p.workers[i].era == era {
			p.workers[i].exit = exit
			p.workers[i].exitStep = exitStep
			p.workers[i].parked = parked
			return
		}
	}
	p.workers = append(p.workers, workerPlan{
		ord: ord, era: era, joinStep: -1, resume: era == 1 || p.s.CkptEvery > 0,
		exit: exit, exitStep: exitStep, parked: parked,
	})
}

// Encode serializes a schedule as indented JSON — the reproducer
// format Replay and the corpus tests consume.
func (s Schedule) Encode() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// A Schedule is plain data; marshaling cannot fail.
		panic(fmt.Sprintf("chaos: encoding schedule: %v", err))
	}
	return append(b, '\n')
}

// Decode parses a schedule from its JSON reproducer form.
func Decode(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: decoding schedule: %w", err)
	}
	return s, nil
}
