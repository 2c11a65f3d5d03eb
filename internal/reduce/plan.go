package reduce

import (
	"cmp"
	"maps"
	"slices"
)

// Link is what one collective costs on a process group in the α–β
// model: Alpha seconds whatever its size, plus Beta seconds per byte of
// the buffer it runs on. The zero Link is an unmeasured one.
type Link struct{ Alpha, Beta float64 }

// FitLink fits a Link to collectives of bytes[i] bytes that took
// seconds[i]: the least-squares line through their lower envelope, the
// fastest sample of each size, which drops what a slower one adds — a
// wait for a late peer, a descheduled worker. With fewer than two sizes
// sampled there is no line, and it returns the zero Link. A negative
// intercept or slope, which noise can give, is clamped at zero and the
// other term refitted.
func FitLink(bytes, seconds []float64) Link {
	fastest := map[float64]float64{}
	for i, x := range bytes {
		if t, ok := fastest[x]; !ok || seconds[i] < t {
			fastest[x] = seconds[i]
		}
	}
	if len(fastest) < 2 {
		return Link{}
	}
	// Summed in size order, so that every rank fitting the same samples
	// gets the same bits.
	var n, sx, sy, sxx, sxy float64
	for _, x := range slices.Sorted(maps.Keys(fastest)) {
		y := fastest[x]
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	beta := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	alpha := (sy - beta*sx) / n
	switch {
	case beta < 0:
		return Link{Alpha: max(0, sy/n)}
	case alpha < 0:
		return Link{Beta: sxy / sxx}
	}
	return Link{alpha, beta}
}

// Plan is one sharded training step's parameter-gather schedule,
// computed as data per install or rebind, and once more for a measured
// link. A step makes 2n visits to its n units: the forward visits of
// units 0…n−1, then the backward visits of units n−1…0. A visit reads
// the buckets its unit's parameters touch.
type Plan struct {
	// Gathers are the step's AllGatherVs in launch order, each submitted
	// at the visit that launches it and waited for by the first visit
	// that reads any of its buckets. An entry of several buckets is a
	// launch group (see PlanStep for which gathers join). A bucket
	// dropped and read again is gathered again.
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
// derives the same plan from the same layout, link and compute; only the
// gathers' Elems depend on the world size (GatherElems).
//
// Within the budget, a step is a caching problem over the visits'
// reads, solved in two passes, and the launches it finds are grouped by
// the link:
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
//   - Which gathers launched at one visit run as one collective, a
//     launch group, from the link and compute[v], the seconds visit v
//     computes. A gather joins the entry launched at the same visit
//     before it when both are first read at one visit, or when the
//     compute between their first readers is shorter than the link's α.
//     Let them land at E one after the other, their readers be r < r′
//     with compute C between them, and the later gather hold b′ bytes.
//     Apart, r′ starts at E + max(C, α + βb′); joined, the entry lands at
//     E + βb′ and r′ starts at E + βb′ + C. Joining saves α − C when C <
//     α and otherwise costs at most βb′. The zero Link joins only
//     gathers with one first reader.
//
// A visit waits for the entries of which it is the first to read a
// bucket. With buckets of equal size no plan within the budget gathers
// less; with unequal sizes the rule is a heuristic that can gather once
// more than the fewest. A budget that holds every bucket never drops one
// before its last read: each is gathered once, all launched at the first
// visit. A visit that reads more than the budget, or a backward that
// must hold more — buckets read by units far apart, as tied weights are
// — has no plan within it, and gets one that holds what the visit or
// backward must.
func PlanStep(unitBuckets [][]int, size []int, budget, w int, link Link, compute []float64) Plan {
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

	// joins reports whether a gather first read at visit r2 joins an
	// entry first read at r, launched at the same visit.
	joins := func(r, r2 int) bool {
		c := 0.0
		for v := r; v < r2 && v < len(compute); v++ {
			c += compute[v]
		}
		return r == r2 || c < link.Alpha
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
		last := len(p.Gathers) - 1
		if last < 0 || p.Gathers[last].Submit != at || !joins(p.Gathers[last].Wait, g.read) {
			p.Gathers, last = append(p.Gathers, Collective{AllGatherV, nil, 0, at, g.read}), last+1
		}
		c := &p.Gathers[last]
		c.Buckets = append(c.Buckets, g.bucket)
		c.Elems = GatherElems(size, c.Buckets, w)
		p.Free[g.drop] = append(p.Free[g.drop], g.bucket)
	}
	return p
}
