// Package fixture holds 64-bit atomic usage the atomic64align analyzer
// must accept: the self-aligning typed atomics, and the 32-bit function
// forms, which need no more than the 4-byte alignment every field has.
package fixture

import "sync/atomic"

type counters struct {
	flag uint32
	ops  atomic.Uint64 // carries its own align64 marker on every GOARCH
	last atomic.Int64
}

func bump(c *counters) int64 {
	c.ops.Add(1)
	c.last.Store(int64(c.ops.Load()))
	c.last.CompareAndSwap(0, 1)
	atomic.AddUint32(&c.flag, 1)
	return c.last.Swap(2)
}
