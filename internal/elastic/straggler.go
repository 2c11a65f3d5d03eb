package elastic

import (
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
)

// StragglerConfig parameterizes straggler detection (Config.Straggler;
// nil disables it). A worker whose median step latency exceeds Factor
// times the world's median-of-medians is flagged — the robust analogue
// of the paper's Figure 7 observation that one slow rank stretches
// every collective, since AllReduce runs at the pace of its slowest
// participant.
//
// The agent records nothing itself: the StepFunc records each completed
// step's compute time (train.Stats.Forward, plus any delay it injects)
// through Agent.Straggler().Record. Whole-step wall time cannot
// attribute a slow rank: in synchronous data parallelism every rank's
// step includes the slowest rank's compute, since peers stall inside
// the gradient collectives, so whole-step latencies converge.
type StragglerConfig struct {
	// Window is how many recent step latencies the sliding median is
	// computed over (default 16).
	Window int
	// PublishEvery gossips this worker's median (and re-evaluates the
	// world) every that many recorded steps (default 4).
	PublishEvery int
	// Factor is the flagging threshold: own median > Factor × the
	// median of all published medians (default 2).
	Factor float64
	// MinPeers is how many peers must have published medians before any
	// verdict is reached (default 1) — a lone worker is never a
	// straggler.
	MinPeers int
	// MinSamples is how many latencies must be windowed before this
	// worker publishes (default Window/2, at least 1) — early jittery
	// steps do not seed the gossip.
	MinSamples int
	// OnFlag, if set, is called on every verdict transition (flagged
	// and un-flagged) from the goroutine that recorded the step.
	OnFlag func(StragglerFlag)
}

// StragglerFlag describes one verdict transition.
type StragglerFlag struct {
	Worker string
	// Flagged is the new verdict.
	Flagged bool
	// Median is this worker's sliding median step latency.
	Median time.Duration
	// WorldMedian is the median of all published medians (self included).
	WorldMedian time.Duration
}

func (c StragglerConfig) withDefaults() StragglerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 4
	}
	if c.Factor <= 1 {
		c.Factor = 2
	}
	if c.MinPeers <= 0 {
		c.MinPeers = 1
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 2
		if c.MinSamples < 1 {
			c.MinSamples = 1
		}
	}
	return c
}

// LatencyKey returns the store counter worker id gossips its median
// step latency (in microseconds) under.
func LatencyKey(prefix, id string) string { return prefix + "/lat/" + id }

// StragglerDetector flags this worker when its median step latency is
// an outlier against the world's. Medians are gossiped through the
// rendezvous store as counters — published by delta so a plain
// Add(key, 0) reads a peer's current value without blocking, exactly
// the heartbeat trick — so detection needs no extra collectives and no
// extra connections, and keeps working across reconfigurations.
//
// Zero is the "not yet published" sentinel (published medians are
// clamped to at least 1µs), so a peer that has not gossiped is simply
// excluded rather than read as infinitely fast.
type StragglerDetector struct {
	st     store.Store
	prefix string
	id     string
	cfg    StragglerConfig

	mu        sync.Mutex
	window    []float64 // recent step latencies, seconds
	steps     int
	published int64 // last value pushed into our store counter, µs
	peers     []string
	flagged   bool
}

// NewStragglerDetector builds a detector gossiping under prefix in st.
// The agent constructs one when Config.Straggler is set, and its
// StepFunc records into it; direct construction is for tests and
// custom loops.
func NewStragglerDetector(st store.Store, prefix, id string, cfg StragglerConfig) *StragglerDetector {
	return &StragglerDetector{st: st, prefix: prefix, id: id, cfg: cfg.withDefaults()}
}

// SetPeers installs the ids whose gossiped medians form the world view
// (the caller's own id should be excluded; it contributes locally).
// The agent calls this after every successful rendezvous.
func (s *StragglerDetector) SetPeers(ids []string) {
	s.mu.Lock()
	s.peers = append([]string(nil), ids...)
	s.mu.Unlock()
}

// Record feeds one completed step's latency into the window and, every
// PublishEvery steps, gossips the median and re-evaluates the verdict.
// Store I/O happens outside the lock; callers record from one goroutine
// (the training loop), so evaluations never interleave.
func (s *StragglerDetector) Record(d time.Duration) {
	s.mu.Lock()
	s.window = append(s.window, d.Seconds())
	if len(s.window) > s.cfg.Window {
		s.window = s.window[len(s.window)-s.cfg.Window:]
	}
	s.steps++
	due := s.steps%s.cfg.PublishEvery == 0 && len(s.window) >= s.cfg.MinSamples
	if !due {
		s.mu.Unlock()
		return
	}
	own := stats.Summarize(s.window).Median
	peers := s.peers
	lastPublished := s.published
	s.mu.Unlock()

	micros := int64(own * 1e6)
	if micros < 1 {
		micros = 1 // zero is the not-yet-published sentinel
	}
	if _, err := s.st.Add(LatencyKey(s.prefix, s.id), micros-lastPublished); err != nil {
		return // store unreachable; keep the stale verdict
	}
	s.mu.Lock()
	s.published = micros
	s.mu.Unlock()

	medians := []float64{own}
	for _, id := range peers {
		v, err := s.st.Add(LatencyKey(s.prefix, id), 0)
		if err != nil || v <= 0 {
			continue // unpublished or unreachable peer: no vote
		}
		medians = append(medians, float64(v)/1e6)
	}
	if len(medians)-1 < s.cfg.MinPeers {
		return
	}
	world := stats.Summarize(medians).Median
	flagged := own > s.cfg.Factor*world

	s.mu.Lock()
	changed := flagged != s.flagged
	s.flagged = flagged
	s.mu.Unlock()
	if flagged {
		mStraggler.With(s.id).Set(1)
	} else {
		mStraggler.With(s.id).Set(0)
	}
	if changed && s.cfg.OnFlag != nil {
		s.cfg.OnFlag(StragglerFlag{
			Worker:      s.id,
			Flagged:     flagged,
			Median:      time.Duration(own * float64(time.Second)),
			WorldMedian: time.Duration(world * float64(time.Second)),
		})
	}
}
