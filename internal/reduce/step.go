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
	// AllGatherV fills a parameter bucket from every rank's chunk.
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
	Kind         Kind
	Bucket       int
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

// Schedule returns the collectives one synchronized step of strategy
// ("ddp" or "", "zero2", "zero3") submits over the layout assign, for
// units whose parameters touch units[u] (UnitBuckets). A bucket's
// gradient reduce is submitted after the visit at which its last
// gradient lands, in bucket order, as the Engine launches it; ddp waits
// for its AllReduces at the end of backward, the sharded strategies for
// each ReduceScatterV at its bucket's update. zero3 gathers as PlanStep
// plans. zero2 gathers each bucket after its update and waits for the
// gather before the next update.
func Schedule(strategy string, assign *Assignment, units [][]int) (Step, error) {
	var plan Plan
	reduce := ReduceScatterV
	switch strategy {
	case "", "ddp":
		reduce = AllReduce
	case "zero3":
		plan = PlanStep(units, assign.BucketElems)
	case "zero2":
	default:
		return nil, fmt.Errorf("reduce: unknown strategy %q (want ddp, zero2 or zero3)", strategy)
	}
	n, nb := len(units), assign.NumBuckets()
	end := 2 * n // the end of backward
	// lands[b] is the backward visit of the lowest unit reading b.
	lands := make([]int, nb)
	for u := n - 1; u >= 0; u-- {
		for _, b := range units[u] {
			lands[b] = end - 1 - u
		}
	}
	var step Step
	reduced, gathered, waiter := 0, 0, 0
	for p := 0; p <= end; p++ {
		for ; reduced < nb && lands[reduced] < p; reduced++ {
			wait := end + reduced // the bucket's update
			if reduce == AllReduce {
				wait = end
			}
			step = append(step, Collective{reduce, reduced, p, wait})
		}
		for ; p < len(plan.Launch) && gathered < plan.Launch[p]; gathered++ {
			for plan.Need[waiter] <= gathered {
				waiter++
			}
			step = append(step, Collective{AllGatherV, plan.Seq[gathered], p, waiter})
		}
	}
	for b := 0; strategy == "zero2" && b < nb; b++ {
		step = append(step, Collective{AllGatherV, b, end + b + 1, end + b + 1})
	}
	return step, nil
}
