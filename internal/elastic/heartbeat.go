package elastic

import (
	"sync"
	"time"

	"repro/internal/store"
)

// Heartbeat publishes a worker's liveness by bumping a store counter
// every interval. Counters rather than timestamps keep detection free
// of cross-process clock comparisons: a monitor only asks "has this
// value changed since I last looked?" against its own clock.
type Heartbeat struct {
	st       store.Store
	key      string
	interval time.Duration
	clk      Clock
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
}

// HeartbeatKey returns the store key worker id beats under.
func HeartbeatKey(prefix, id string) string { return prefix + "/hb/" + id }

// StartHeartbeatClock begins beating immediately and then every
// interval until Stop, paced by clk (SystemClock outside tests).
func StartHeartbeatClock(st store.Store, prefix, id string, interval time.Duration, clk Clock) *Heartbeat {
	h := &Heartbeat{
		st:       st,
		key:      HeartbeatKey(prefix, id),
		interval: interval,
		clk:      clk,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go h.loop()
	return h
}

func (h *Heartbeat) loop() {
	defer close(h.done)
	tick, stopTick := h.clk.Tick(h.interval)
	defer stopTick()
	h.beat()
	for {
		select {
		case <-h.stop:
			return
		case <-tick:
			h.beat()
		}
	}
}

func (h *Heartbeat) beat() {
	// A failed beat is indistinguishable from a missed one to peers;
	// the lease mechanism tolerates both.
	//ddplint:ignore storeerr a failed beat is indistinguishable from a missed one; the lease tolerates both
	_, _ = h.st.Add(h.key, 1)
}

// Stop halts the heartbeat; peers will declare this worker dead after
// the lease expires. Safe to call more than once.
func (h *Heartbeat) Stop() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// peerState is a monitor's local view of one peer's liveness.
type peerState struct {
	lastValue int64
	lastBeat  time.Time
	suspected bool
}

// Monitor watches peers' heartbeat counters and reports the first
// lease expiry per peer through a callback. Every worker monitors
// every peer — there is no privileged failure detector whose own death
// would blind the job; the rendezvous CAS fence deduplicates the
// resulting generation proposals.
type Monitor struct {
	st       store.Store
	prefix   string
	lease    time.Duration
	poll     time.Duration
	clk      Clock
	onExpire func(id string)

	mu    sync.Mutex
	peers map[string]*peerState

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartMonitorClock begins polling, paced by clk (SystemClock outside
// tests), which governs both the poll cadence and the lease arithmetic.
// The peer set starts empty; install it with SetPeers after each
// rendezvous. onExpire runs on the monitor goroutine, at most once per
// peer per SetPeers installation.
func StartMonitorClock(st store.Store, prefix string, lease, poll time.Duration, onExpire func(id string), clk Clock) *Monitor {
	m := &Monitor{
		st:       st,
		prefix:   prefix,
		lease:    lease,
		poll:     poll,
		clk:      clk,
		onExpire: onExpire,
		peers:    make(map[string]*peerState),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go m.loop()
	return m
}

// SetPeers replaces the monitored set (the caller's own id should be
// excluded). Each peer's lease is granted fresh from now, so a newly
// admitted member has a full lease to produce its first beat.
func (m *Monitor) SetPeers(ids []string) {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers = make(map[string]*peerState, len(ids))
	for _, id := range ids {
		m.peers[id] = &peerState{lastValue: -1, lastBeat: now}
	}
}

func (m *Monitor) loop() {
	defer close(m.done)
	tick, stopTick := m.clk.Tick(m.poll)
	defer stopTick()
	for {
		select {
		case <-m.stop:
			return
		case <-tick:
			for _, id := range m.expiredPeers() {
				m.onExpire(id)
			}
		}
	}
}

// expiredPeers advances every peer's view and collects fresh expiries.
func (m *Monitor) expiredPeers() []string {
	m.mu.Lock()
	ids := make([]string, 0, len(m.peers))
	for id := range m.peers {
		ids = append(ids, id)
	}
	m.mu.Unlock()

	var expired []string
	for _, id := range ids {
		v, err := m.st.Add(HeartbeatKey(m.prefix, id), 0)
		if err != nil {
			continue // store unreachable; better to stall than to misfire
		}
		now := m.clk.Now()
		m.mu.Lock()
		p, ok := m.peers[id]
		if !ok || p.suspected {
			m.mu.Unlock()
			continue
		}
		if v != p.lastValue {
			p.lastValue = v
			p.lastBeat = now
		} else if now.Sub(p.lastBeat) > m.lease {
			p.suspected = true
			mHeartbeatMisses.Inc()
			expired = append(expired, id)
		}
		m.mu.Unlock()
	}
	return expired
}

// Stop halts monitoring. Safe to call more than once.
func (m *Monitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}
