package ckpt

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
)

// ErrAbandoned is returned when a save is canceled before its commit
// point — typically because the elastic generation moved on (a peer
// died mid-save, so the full set of shards will never materialize).
// Abandoned saves are harmless: their shards sit uncommitted, no
// manifest references them, and retention eventually sweeps them.
var ErrAbandoned = errors.New("ckpt: save abandoned before commit")

// StoreCommitter coordinates the commit point of a sharded save through
// the rendezvous store: each rank bumps a per-(generation, step) arrival
// counter once its shard is durable, and rank 0 polls the counter until
// it reaches the world size — the barrier after which the manifest may
// be written. This keeps checkpoint coordination entirely off the
// collective data plane, so asynchronous saves never interleave store
// traffic with training collectives (whose submission order must match
// across ranks).
type StoreCommitter struct {
	// St is the shared store; required.
	St store.Store
	// Prefix namespaces the arrival counters (default "ckpt").
	Prefix string
	// Poll paces rank 0's counter polling (default 2ms).
	Poll time.Duration
	// Timeout bounds rank 0's wait for stragglers (default 60s); on
	// expiry Done returns an error and no manifest is committed.
	Timeout time.Duration
}

// doneKey is the arrival counter for the (g, s) save. Generations make
// the key unique across world reconfigurations: a save interrupted by a
// membership change can never pollute the counter of a later save at
// the same step, because the later save runs under a higher generation.
func (c *StoreCommitter) doneKey(g int, s int64) string {
	prefix := c.Prefix
	if prefix == "" {
		prefix = "ckpt"
	}
	return fmt.Sprintf("%s/g%d/s%d/done", prefix, g, s)
}

// Done marks the calling rank's shard durable by bumping the save's
// arrival counter. Other ranks return at once: only the manifest writer
// needs the barrier, so rank 0 alone waits for all world arrivals and
// garbage-collects the counter before returning. Closing cancel (may be
// nil) unwinds rank 0's wait promptly with ErrAbandoned.
func (c *StoreCommitter) Done(generation int, step int64, rank, world int, cancel <-chan struct{}) error {
	key := c.doneKey(generation, step)
	n, err := c.St.Add(key, 1)
	if err != nil {
		return fmt.Errorf("ckpt: signaling shard done: %w", err)
	}
	if rank != 0 {
		return nil
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	deadline := time.Now().Add(timeout)
	for n < int64(world) {
		select {
		case <-cancel:
			return ErrAbandoned
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ckpt: commit barrier for step %d (generation %d): %d/%d shards after %v",
				step, generation, n, world, timeout)
		}
		time.Sleep(poll)
		if n, err = c.St.Add(key, 0); err != nil {
			return fmt.Errorf("ckpt: polling commit barrier: %w", err)
		}
	}
	// All shards durable; the counter has served its purpose. Followers
	// never re-read it (they returned after their own Add), so deleting
	// here cannot strand anyone.
	//ddplint:ignore storeerr commit already durable; a leaked counter key only wastes store space
	_ = c.St.Delete(key)
	return nil
}
