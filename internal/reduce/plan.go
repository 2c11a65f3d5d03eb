package reduce

import (
	"cmp"
	"slices"
)

// Plan is one sharded training step's parameter-gather schedule, computed
// as data once per install or rebind. A step makes 2n visits to its n
// units: the forward visits of units 0…n−1, then the backward visits of
// units n−1…0. A visit reads the buckets its unit's parameters touch.
type Plan struct {
	// Gathers are the step's AllGatherVs in launch order, each submitted
	// at the visit that launches it and waited for by the first visit
	// that reads it. Those launched at one visit for one reader are one
	// entry, a launch group. A bucket dropped and read again is gathered
	// again.
	Gathers Step
	// Free[v] lists the buckets dropped once visit v has run.
	Free [][]int
	// Budget is the bound PlanStep was given on the elements of the
	// buckets resident while any visit runs, a bucket counting from its
	// launch.
	Budget int
}

// PrefetchBudget is the tightest budget, in elements, that leaves room
// for what any visit reads and one gather ahead of it: the largest sum
// of one visit's buckets plus the largest single bucket.
func PrefetchBudget(unitBuckets [][]int, size []int) int {
	budget, largest := 0, 0
	for _, unit := range unitBuckets {
		sum := 0
		for _, b := range unit {
			sum += size[b]
			largest = max(largest, size[b])
		}
		budget = max(budget, sum)
	}
	return budget + largest
}

// PlanStep computes the plan for units whose parameters touch
// unitBuckets[u], bucket b holding size[b] elements, that keeps the
// resident buckets within budget elements, at world w. Every rank
// derives the same plan from the same layout; only the gathers' Elems
// depend on the world size (GatherElems).
//
// Within the budget, a step is a caching problem over the visits'
// reads, solved in two passes:
//
//   - Which gathers happen, by Belady's rule (L. A. Belady, "A study of
//     replacement algorithms for a virtual-storage computer", IBM
//     Systems Journal 5(2), 1966). Walking the visits, a visit that
//     reads a bucket that is not resident first makes room: while the
//     bucket does not fit, it drops the resident bucket it does not read
//     whose next read is farthest away (the larger on a tie), as of that
//     bucket's last read before the visit. Backward never drops a bucket
//     it still reads — the runtime frees a bucket in backward only on
//     its last gradient — and every bucket is dropped after its last
//     read of the step.
//   - When each gather launches, by conservative prefetching (P. Cao,
//     E. W. Felten, A. R. Karlin and K. Li, "A study of integrated
//     prefetching and caching strategies", SIGMETRICS 1995). Taking the
//     gathers in order, each launches at the earliest visit, no earlier
//     than the gather before it nor before its bucket's last drop, from
//     which it fits the budget until the visit that reads it.
//
// A visit waits for exactly the buckets it reads. With buckets of equal
// size no plan within the budget gathers less; with unequal sizes the
// rule is a heuristic that can gather once more than the fewest. A
// budget that holds every bucket never drops one before its last read:
// each is gathered once, all launched at the first visit. A visit that
// reads more than the budget, or a backward that must hold more — buckets
// read by units far apart, as tied weights are — has no plan within it,
// and gets one that holds what the visit or backward must.
func PlanStep(unitBuckets [][]int, size []int, budget, w int) Plan {
	n, nb := len(unitBuckets), len(size)
	nv := 2 * n

	// after[v][b] is the first visit at or after v that reads b (nv if
	// none).
	after := make([][]int, nv+1)
	after[nv] = slices.Repeat([]int{nv}, nb)
	for v := nv - 1; v >= 0; v-- {
		after[v] = slices.Clone(after[v+1])
		for _, b := range reads(unitBuckets, v) {
			after[v][b] = v
		}
	}

	// Pass 1: the gathers, each with the visit that first reads it and
	// the visit after which it is dropped. cur[b] is b's resident gather
	// (−1 if none) and last[b] the latest visit so far that read b.
	type gather struct{ bucket, read, drop int }
	var gathers []gather
	cur := slices.Repeat([]int{-1}, nb)
	last := make([]int, nb)
	load := 0 // elements resident
	drop := func(b, v int) {
		gathers[cur[b]].drop = v
		cur[b] = -1
		load -= size[b]
	}
	for v := range nv {
		for _, b := range reads(unitBuckets, v) {
			for cur[b] < 0 && load+size[b] > budget {
				// A candidate was last read in forward: a bucket backward has
				// read is either read again or already dropped.
				victim := -1
				for c := range nb {
					if cur[c] >= 0 && last[c] < n && !slices.Contains(reads(unitBuckets, v), c) &&
						(victim < 0 || cmp.Or(cmp.Compare(after[v][c], after[v][victim]), size[c]-size[victim]) > 0) {
						victim = c
					}
				}
				if victim < 0 {
					break // every resident bucket is still read in backward
				}
				drop(victim, last[victim])
			}
			if cur[b] < 0 {
				cur[b] = len(gathers)
				gathers = append(gathers, gather{bucket: b, read: v})
				load += size[b]
			}
			last[b] = v
		}
		for _, b := range reads(unitBuckets, v) {
			if after[v+1][b] == nv {
				drop(b, v)
			}
		}
	}

	// Pass 2: launch each gather as early as the budget lets it.
	resident := make([]int, nv) // elements resident while each visit runs
	for _, g := range gathers {
		for v := g.read; v <= g.drop; v++ {
			resident[v] += size[g.bucket]
		}
	}
	p := Plan{Free: make([][]int, nv), Budget: budget}
	dropped := slices.Repeat([]int{-1}, nb) // the visit after which b was last dropped
	prev := 0                               // the gather before's launch visit
	for _, g := range gathers {
		from, at := max(prev, dropped[g.bucket]+1), g.read
		for at > from && resident[at-1]+size[g.bucket] <= budget {
			at--
		}
		for v := at; v < g.read; v++ {
			resident[v] += size[g.bucket]
		}
		prev, dropped[g.bucket] = at, g.drop
		// A gather joins the entry before it when both share their visits.
		last := len(p.Gathers) - 1
		if last < 0 || p.Gathers[last].Submit != at || p.Gathers[last].Wait != g.read {
			p.Gathers, last = append(p.Gathers, Collective{AllGatherV, nil, 0, at, g.read}), last+1
		}
		c := &p.Gathers[last]
		c.Buckets = append(c.Buckets, g.bucket)
		c.Elems = GatherElems(size, c.Buckets, w)
		p.Free[g.drop] = append(p.Free[g.drop], g.bucket)
	}
	return p
}
