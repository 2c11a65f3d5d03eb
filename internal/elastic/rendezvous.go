package elastic

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/store"
)

// Rendezvous implements the generation-numbered membership protocol.
//
// Store layout under prefix P:
//
//	P/gen            current generation, decimal; advanced only by CAS
//	P/g<G>/count     arrival counter for round G (Add assigns ordinals)
//	P/g<G>/member/<i> registration of the round's i-th arrival
//	P/g<G>/seal      world size the round sealed with, decimal
//	P/g<G>/sealed    counter flag: non-zero once seal exists (probe)
//	P/hb/<id>        heartbeat counter of worker id (see heartbeat.go)
//	P/dead/<id>      generation at which id was declared dead
//
// A round proceeds: each worker atomically takes an arrival ordinal
// (its prospective rank), registers its Member record, and waits for
// the round leader (ordinal 0) to seal the round once at least
// MinWorld workers arrived — holding the door open up to Grace for
// stragglers, to at most MaxWorld. Workers that arrive after the seal
// propose generation G+1 and retry there; waiting workers observing a
// generation above the round they joined abandon it and follow. The
// CAS fence on P/gen guarantees a single linear history of
// generations even when many workers detect a failure simultaneously.
type Rendezvous struct {
	st     store.Store
	prefix string
	min    int
	max    int
	grace  time.Duration
	poll   time.Duration
	round  time.Duration
	clk    Clock

	initOnce sync.Once
	initErr  error
}

// NewRendezvous builds a rendezvous handle from an elastic Config
// (only the store/topology fields are consulted).
func NewRendezvous(cfg Config) (*Rendezvous, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Rendezvous{
		st:     cfg.Store,
		prefix: cfg.Prefix,
		min:    cfg.MinWorld,
		max:    cfg.MaxWorld,
		grace:  cfg.Grace,
		poll:   cfg.PollInterval,
		round:  cfg.RoundTimeout,
		clk:    cfg.Clock,
	}, nil
}

func (r *Rendezvous) genKey() string        { return r.prefix + "/gen" }
func (r *Rendezvous) countKey(g int) string { return fmt.Sprintf("%s/g%d/count", r.prefix, g) }
func (r *Rendezvous) memberKey(g, i int) string {
	return fmt.Sprintf("%s/g%d/member/%d", r.prefix, g, i)
}

// memberFlagKey is a counter bumped after memberKey is Set, giving the
// round leader a non-blocking way to poll for registrations.
func (r *Rendezvous) memberFlagKey(g, i int) string {
	return fmt.Sprintf("%s/g%d/registered/%d", r.prefix, g, i)
}
func (r *Rendezvous) sealKey(g int) string   { return fmt.Sprintf("%s/g%d/seal", r.prefix, g) }
func (r *Rendezvous) sealedKey(g int) string { return fmt.Sprintf("%s/g%d/sealed", r.prefix, g) }

func encodeGen(g int) []byte { return []byte(strconv.Itoa(g)) }

// ensureInit creates the generation key (generation 0) exactly once
// across all workers.
func (r *Rendezvous) ensureInit() error {
	r.initOnce.Do(func() {
		_, r.initErr = r.st.CompareAndSwap(r.genKey(), nil, encodeGen(0))
	})
	return r.initErr
}

// CurrentGeneration returns the latest generation number.
func (r *Rendezvous) CurrentGeneration() (int, error) {
	if err := r.ensureInit(); err != nil {
		return 0, err
	}
	v, err := r.st.Get(r.genKey())
	if err != nil {
		return 0, err
	}
	g, err := strconv.Atoi(string(v))
	if err != nil {
		return 0, fmt.Errorf("elastic: corrupt generation %q: %v", v, err)
	}
	return g, nil
}

// ProposeGeneration attempts to advance the generation from `from` to
// from+1 and returns the current generation afterwards. Many workers
// may propose concurrently; the CAS fence admits exactly one bump per
// observed generation, so detection storms do not skip generations.
func (r *Rendezvous) ProposeGeneration(from int) (int, error) {
	if err := r.ensureInit(); err != nil {
		return 0, err
	}
	if _, err := r.st.CompareAndSwap(r.genKey(), encodeGen(from), encodeGen(from+1)); err != nil {
		return 0, err
	}
	return r.CurrentGeneration()
}

// WaitGenerationAbove blocks until the generation exceeds g and
// returns it. It rides the store's Watch primitive, so workers parked
// here (idle joiners, generation watchers) wake without polling, and
// it re-arms a watch that times out: a parked wait lasts until the
// generation moves or the store fails otherwise (closed, partitioned),
// not the store's per-call timeout.
func (r *Rendezvous) WaitGenerationAbove(g int) (int, error) {
	if err := r.ensureInit(); err != nil {
		return 0, err
	}
	prev := encodeGen(g)
	for {
		v, err := r.st.Watch(r.genKey(), prev)
		if errors.Is(err, store.ErrTimeout) {
			continue
		}
		if err != nil {
			return 0, err
		}
		cur, err := strconv.Atoi(string(v))
		if err != nil {
			return 0, fmt.Errorf("elastic: corrupt generation %q: %v", v, err)
		}
		if cur > g {
			return cur, nil
		}
		prev = v
	}
}

// MarkDead records that a worker was declared dead at generation g —
// observability for operators; membership itself is decided by who
// re-registers in the next round.
func (r *Rendezvous) MarkDead(id string, g int) {
	//ddplint:ignore storeerr observability breadcrumb only; membership does not depend on this key
	_ = r.st.Set(r.prefix+"/dead/"+id, encodeGen(g))
}

// Join registers the caller in the current rendezvous round and blocks
// until it holds a sealed assignment. It transparently follows
// generation bumps: a worker that arrives too late for a sealed round
// forces the next one, and a worker stuck in a round that never seals
// (e.g. its leader died) forces a new generation after RoundTimeout.
func (r *Rendezvous) Join(me Member) (*Assignment, error) {
	g, err := r.CurrentGeneration()
	if err != nil {
		return nil, err
	}
	for {
		a, next, err := r.joinRound(g, me)
		if err != nil {
			return nil, err
		}
		if a != nil {
			return a, nil
		}
		if next <= g {
			return nil, fmt.Errorf("elastic: rendezvous stalled at generation %d", g)
		}
		g = next
	}
}

// joinRound attempts round g. It returns the sealed assignment, or the
// next generation to try (having abandoned or bumped), or an error.
func (r *Rendezvous) joinRound(g int, me Member) (*Assignment, int, error) {
	ord64, err := r.st.Add(r.countKey(g), 1)
	if err != nil {
		return nil, 0, err
	}
	ord := int(ord64) - 1
	me.Step = max64(me.Step, 0)
	if err := r.st.Set(r.memberKey(g, ord), me.encode()); err != nil {
		return nil, 0, err
	}
	if _, err := r.st.Add(r.memberFlagKey(g, ord), 1); err != nil {
		return nil, 0, err
	}

	if ord == 0 {
		if abandoned, err := r.lead(g); err != nil {
			return nil, 0, err
		} else if abandoned {
			cur, err := r.CurrentGeneration()
			return nil, cur, err
		}
	}

	// Wait for the seal, abandoning the round if the generation moves
	// on or the round stalls past RoundTimeout.
	deadline := r.clk.Now().Add(r.round)
	for {
		sealed, err := r.st.Add(r.sealedKey(g), 0)
		if err != nil {
			return nil, 0, err
		}
		if sealed > 0 {
			break
		}
		cur, err := r.CurrentGeneration()
		if err != nil {
			return nil, 0, err
		}
		if cur > g {
			return nil, cur, nil
		}
		if r.clk.Now().After(deadline) {
			next, err := r.ProposeGeneration(g)
			return nil, next, err
		}
		r.clk.Sleep(r.poll)
	}

	sealVal, err := r.st.Get(r.sealKey(g))
	if err != nil {
		return nil, 0, err
	}
	world, err := strconv.Atoi(string(sealVal))
	if err != nil {
		return nil, 0, fmt.Errorf("elastic: corrupt seal %q: %v", sealVal, err)
	}
	if ord >= world {
		if world >= r.max {
			// The round is full: park as a hot standby until the next
			// membership change opens a slot, instead of forcing a
			// reconfiguration storm on a healthy full-size group.
			next, err := r.WaitGenerationAbove(g)
			return nil, next, err
		}
		// Arrived after an under-full cut: force the next round so the
		// group grows to admit us.
		next, err := r.ProposeGeneration(g)
		return nil, next, err
	}

	members := make([]Member, world)
	for i := 0; i < world; i++ {
		v, err := r.st.Get(r.memberKey(g, i))
		if err != nil {
			return nil, 0, err
		}
		m, err := decodeMember(v)
		if err != nil {
			return nil, 0, err
		}
		members[i] = m
	}
	return &Assignment{Generation: g, Rank: ord, World: world, Members: members}, 0, nil
}

// lead is the round leader's duty: wait for MinWorld arrivals, hold
// the door open up to Grace (bounded by MaxWorld), then seal. Reports
// abandoned=true when the generation moved on underneath the round.
func (r *Rendezvous) lead(g int) (abandoned bool, err error) {
	deadline := r.clk.Now().Add(r.round)
	// Phase 1: quorum.
	for {
		n, err := r.st.Add(r.countKey(g), 0)
		if err != nil {
			return false, err
		}
		if int(n) >= r.min {
			break
		}
		cur, err := r.CurrentGeneration()
		if err != nil {
			return false, err
		}
		if cur > g {
			return true, nil
		}
		if r.clk.Now().After(deadline) {
			_, err := r.ProposeGeneration(g)
			return true, err
		}
		r.clk.Sleep(r.poll)
	}
	// Phase 2: the grace window for stragglers.
	if r.grace > 0 {
		graceEnd := r.clk.Now().Add(r.grace)
		for r.clk.Now().Before(graceEnd) {
			n, err := r.st.Add(r.countKey(g), 0)
			if err != nil {
				return false, err
			}
			if int(n) >= r.max {
				break
			}
			r.clk.Sleep(r.poll)
		}
	}
	n64, err := r.st.Add(r.countKey(g), 0)
	if err != nil {
		return false, err
	}
	world := int(n64)
	if world > r.max {
		world = r.max
	}
	// Everyone counted Sets its member key right after Add; poll the
	// registration flags (never block indefinitely — a worker that
	// died between Add and Set must not wedge the round) so readers
	// never block after the seal.
	for i := 0; i < world; i++ {
		for {
			reg, err := r.st.Add(r.memberFlagKey(g, i), 0)
			if err != nil {
				return false, err
			}
			if reg > 0 {
				break
			}
			cur, err := r.CurrentGeneration()
			if err != nil {
				return false, err
			}
			if cur > g {
				return true, nil
			}
			if r.clk.Now().After(deadline) {
				_, err := r.ProposeGeneration(g)
				return true, err
			}
			r.clk.Sleep(r.poll)
		}
	}
	if err := r.st.Set(r.sealKey(g), []byte(strconv.Itoa(world))); err != nil {
		return false, err
	}
	if _, err := r.st.Add(r.sealedKey(g), 1); err != nil {
		return false, err
	}
	// Housekeeping: a sealed round proves generations far behind it
	// are dead; drop their keys so a long-lived churny job does not
	// grow the store without bound.
	r.cleanupRound(g - cleanupLag)
	return false, nil
}

// cleanupLag is how many generations behind a sealed round the
// leader garbage-collects. Large enough that no straggler can still
// be reading the old round's keys (stragglers abandon a round as soon
// as they observe any later generation).
const cleanupLag = 4

// cleanupRound deletes round g's keys. Best-effort: a failed delete
// just leaves garbage for a later leader.
func (r *Rendezvous) cleanupRound(g int) {
	if g < 0 {
		return
	}
	n, err := r.st.Add(r.countKey(g), 0)
	if err != nil {
		return
	}
	keys := []string{r.sealKey(g), r.sealedKey(g), r.countKey(g)}
	for i := 0; i < int(n); i++ {
		keys = append(keys, r.memberKey(g, i), r.memberFlagKey(g, i))
	}
	for _, k := range keys {
		//ddplint:ignore storeerr best-effort GC of a superseded round; a leaked key is reclaimed by a later leader
		_ = r.st.Delete(k)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
