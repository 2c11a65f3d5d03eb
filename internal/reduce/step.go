package reduce

import (
	"fmt"
	"slices"
)

// Kind is the collective a step submits for one bucket.
type Kind uint8

const (
	// AllReduce averages a gradient bucket on every rank (ddp).
	AllReduce Kind = iota
	// ReduceScatterV averages each rank's chunk of a gradient bucket.
	ReduceScatterV
	// AllGatherV fills parameter buckets from every rank's chunks: one
	// bucket in place, or a launch group's through a staging buffer
	// (GatherElems).
	AllGatherV
)

// String names the kind as comm's method does.
func (k Kind) String() string {
	return [...]string{"AllReduce", "ReduceScatterV", "AllGatherV"}[k]
}

// Collective is one entry of a step's schedule. The training goroutine
// runs a step as a chain of segments: its 2n visits (see Plan), then
// each bucket's update in bucket order. Point p is where segment p
// starts: "before visit v" and "after visit v−1" are point v, "after
// backward" is 2n, bucket b's update starts at 2n+b and the step ends at
// 2n+NumBuckets. A collective is submitted at point Submit, before the
// waits there, and first waited for at point Wait.
type Collective struct {
	Kind Kind
	// Buckets are the buckets it carries: one, or a launch group's for
	// an AllGatherV (Plan.Gathers), in the order the staging lays them
	// out.
	Buckets []int
	// Elems is the length of the buffer the collective runs on: the
	// bucket's elements, or a group's GatherElems.
	Elems        int
	Submit, Wait int
}

// Step is one synchronized training step's collectives, in the order
// the process group receives them.
type Step []Collective

// Count returns how many of the step's collectives are of kind k.
func (s Step) Count(k Kind) (n int) {
	for _, c := range s {
		if c.Kind == k {
			n++
		}
	}
	return n
}

// Buckets returns how many buckets the step's collectives of kind k
// carry.
func (s Step) Buckets(k Kind) (n int) {
	for _, c := range s {
		if c.Kind == k {
			n += len(c.Buckets)
		}
	}
	return n
}

// GatherElems is the length of the buffer one AllGatherV of buckets runs
// on at world w, bucket b holding size[b] elements: the bucket itself
// when it is alone, else a staging buffer of w·P elements, where P is
// the sum of the buckets' largest chunks, ⌈size[b]/w⌉. comm.ChunkBounds
// gives rank r exactly [rP, (r+1)P) of it, where its chunks sit in
// bucket order, each padded to the largest.
func GatherElems(size, buckets []int, w int) int {
	if len(buckets) == 1 {
		return size[buckets[0]]
	}
	p := 0
	for _, b := range buckets {
		p += (size[b] + w - 1) / w
	}
	return w * p
}

// UnitBuckets lists, per unit, the buckets its parameters fall in, in
// first-appearance order; unit u takes the next counts[u] parameters.
func UnitBuckets(assign *Assignment, counts []int) [][]int {
	units := make([][]int, len(counts))
	next := 0
	for u, n := range counts {
		for _, b := range assign.BucketOf[next : next+n] {
			if !slices.Contains(units[u], b) {
				units[u] = append(units[u], b)
			}
		}
		next += n
	}
	return units
}

// reads returns the buckets visit v of a step over units reads: unit v's
// in forward, unit 2n−1−v's in backward, and none outside the step.
func reads(units [][]int, v int) []int {
	switch n := len(units); {
	case v >= 0 && v < n:
		return units[v]
	case v >= n && v < 2*n:
		return units[2*n-1-v]
	}
	return nil
}

// Schedule returns the collectives one synchronized step submits over
// the layout assign, for units whose parameters touch units[u]
// (UnitBuckets): ddp's when plan is nil, else a sharded step's, whose
// gathers are plan's (PlanStep over the same units), copied unchanged.
// A bucket's gradient reduce is submitted after the visit at which its
// last gradient lands, in bucket order, as the Engine launches it; ddp
// waits for its AllReduces at the end of backward, a sharded step for
// each ReduceScatterV at its bucket's update.
func Schedule(assign *Assignment, units [][]int, plan *Plan) Step {
	nb, end := assign.NumBuckets(), 2*len(units) // end: the end of backward
	lands := make([]int, nb)                     // lands[b]: the last backward visit reading b
	for v := len(units); v < end; v++ {
		for _, b := range reads(units, v) {
			lands[b] = v
		}
	}
	var gathers, step Step
	if plan != nil {
		gathers = plan.Gathers
	}
	reduced := 0
	for p := 0; p <= end; p++ {
		for ; reduced < nb && lands[reduced] < p; reduced++ {
			c := Collective{ReduceScatterV, []int{reduced}, assign.BucketElems[reduced], p, end + reduced} // waited at the bucket's update
			if plan == nil {
				c.Kind, c.Wait = AllReduce, end
			}
			step = append(step, c)
		}
		for ; len(gathers) > 0 && gathers[0].Submit == p; gathers = gathers[1:] {
			step = append(step, gathers[0])
		}
	}
	return step
}

// Check returns an error naming the collective and the point at fault
// unless the step can run over units (UnitBuckets): each collective is
// waited for no earlier than it is submitted; a gather is waited for at
// the first visit that reads any of its buckets, no visit reads one of
// them while it is in flight, and each is read once it has landed; a
// reduce is submitted after the last visit reading its buckets, and
// waited for no later than their updates (point 2n+b).
func (s Step) Check(units [][]int) error {
	n, last := len(units), map[int]int{} // last[b]: the last visit reading b
	for v := range 2 * n {
		for _, b := range reads(units, v) {
			last[b] = v
		}
	}
	for _, c := range s {
		fail := func(format string, a ...any) error {
			return fmt.Errorf("reduce: %v of buckets %v submitted at point %d and waited for at %d: "+format, append([]any{c.Kind, c.Buckets, c.Submit, c.Wait}, a...)...)
		}
		if c.Wait < c.Submit {
			return fail("the wait comes first")
		}
		if c.Kind != AllGatherV {
			for _, b := range c.Buckets {
				if v, read := last[b]; read && v >= c.Submit {
					return fail("point %d still reads bucket %d", v, b) // backward still adds to b's gradient
				}
				if c.Wait > 2*n+b {
					return fail("after bucket %d's update at point %d", b, 2*n+b)
				}
			}
			continue
		}
		for _, b := range c.Buckets {
			for v := c.Submit; v < c.Wait; v++ {
				if slices.Contains(reads(units, v), b) {
					return fail("point %d still reads bucket %d", v, b) // while the gather is in flight
				}
			}
			if v, read := last[b]; !read || v < c.Wait {
				return fail("no point from there reads bucket %d", b)
			}
		}
		if !slices.ContainsFunc(c.Buckets, func(b int) bool { return slices.Contains(reads(units, c.Wait), b) }) {
			return fail("that point reads none of its buckets")
		}
	}
	return nil
}
