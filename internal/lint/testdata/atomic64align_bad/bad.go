// Package fixture seeds atomic64align violations: the function-form
// 64-bit atomics, wherever their operand sits.
package fixture

import "sync/atomic"

type counters struct {
	flag uint32
	ops  uint64 // offset 4 on 386: the fault the ban prevents
}

func bump(c *counters) {
	atomic.AddUint64(&c.ops, 1) //lint:want atomic64align
}

type stats struct {
	total int64 // offset 0: aligned today, one field insertion from not
	last  int64
}

func record(s *stats, v int64) {
	atomic.StoreInt64(&s.total, v)      //lint:want atomic64align
	old := atomic.SwapInt64(&s.last, v) //lint:want atomic64align
	_ = old
	_ = atomic.LoadInt64(&s.total)            //lint:want atomic64align
	atomic.CompareAndSwapInt64(&s.last, 0, v) //lint:want atomic64align
}

var global uint64

func viaFuncValue() func(*uint64, uint64) uint64 {
	return atomic.AddUint64 //lint:want atomic64align
}

func local() uint64 {
	var n uint64
	atomic.StoreUint64(&n, 1)         //lint:want atomic64align
	return atomic.LoadUint64(&global) //lint:want atomic64align
}
