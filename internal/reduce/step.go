package reduce

import "slices"

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
	// an AllGatherV (Plan.Groups), in the order the staging lays them
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

// Schedule returns the collectives one synchronized step submits at
// world w over the layout assign, for units whose parameters touch
// units[u] (UnitBuckets): ddp's when plan is nil, else a sharded step's
// that gathers as plan (PlanStep over the same units) says, one
// AllGatherV per launch group (Plan.Groups), first waited for by the
// visit that reads its buckets. A bucket's gradient reduce is submitted
// after the visit at which its last gradient lands, in bucket order, as
// the Engine launches it; ddp waits for its AllReduces at the end of
// backward, a sharded step for each ReduceScatterV at its bucket's
// update.
func Schedule(assign *Assignment, units [][]int, plan *Plan, w int) Step {
	n, nb := len(units), assign.NumBuckets()
	end := 2 * n // the end of backward
	// lands[b] is the backward visit of the lowest unit reading b.
	lands := make([]int, nb)
	for u := n - 1; u >= 0; u-- {
		for _, b := range units[u] {
			lands[b] = end - 1 - u
		}
	}
	var groups []Group
	if plan != nil {
		groups = plan.Groups()
	}
	var step Step
	reduced, gathered := 0, 0
	for p := 0; p <= end; p++ {
		for ; reduced < nb && lands[reduced] < p; reduced++ {
			c := Collective{ReduceScatterV, []int{reduced}, assign.BucketElems[reduced], p, end + reduced} // waited at the bucket's update
			if plan == nil {
				c.Kind, c.Wait = AllReduce, end
			}
			step = append(step, c)
		}
		for ; gathered < len(groups) && groups[gathered].Launch == p; gathered++ {
			g := groups[gathered]
			buckets := plan.Seq[g.Lo:g.Hi:g.Hi]
			step = append(step, Collective{AllGatherV, buckets, GatherElems(assign.BucketElems, buckets, w), p, g.Wait})
		}
	}
	return step
}
