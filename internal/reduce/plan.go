package reduce

import "slices"

// Plan is one ZeRO-3 training step's parameter-gather schedule, computed
// as data once per install or rebind. A step makes 2n visits to its n
// units: the forward visits of units 0…n−1, then the backward visits of
// units n−1…0. A visit reads the buckets its unit's parameters touch.
type Plan struct {
	// Seq lists the buckets in launch order, once per gather; a bucket
	// that is dropped and read again appears again.
	Seq []int
	// Per visit v: the first Launch[v] entries of Seq are launched once
	// v starts, the first Need[v] have landed before it runs, and Free[v]
	// lists the buckets dropped once it has run.
	Launch, Need []int
	Free         [][]int
}

// PlanStep computes the plan for units whose parameters touch
// unitBuckets[u], bucket b holding size[b] elements. Every rank derives
// the same plan from the same layout; nothing in it depends on the world
// size.
//
// The plan keeps the resident buckets within a budget: the largest sum
// of one visit's buckets plus the largest single bucket. Walking the
// visits in order, it spends that budget in two ways:
//
//   - Hold: after a visit, a bucket whose next visit comes no later than
//     the plan's next gather of another bucket is not dropped, if
//     holding it fits the budget until then. This keeps the buckets
//     the last units read gathered into backward.
//   - Launch: a visit launches what it reads that is not resident, then
//     at most one gather ahead: the plan's next gather, as soon as it
//     fits the budget until the visit that reads it, even across the
//     forward/backward turn.
//
// A visit waits for exactly the buckets it reads. In backward a bucket
// is dropped after its last read, which is when its last gradient is in.
func PlanStep(unitBuckets [][]int, size []int) Plan {
	n, nb := len(unitBuckets), len(size)
	nv := 2 * n
	reads := func(v int) []int {
		if v < n {
			return unitBuckets[v]
		}
		return unitBuckets[nv-1-v]
	}

	// after[v][b] is the first visit at or after v that reads b (nv if
	// none).
	after := make([][]int, nv+1)
	after[nv] = slices.Repeat([]int{nv}, nb)
	for v := nv - 1; v >= 0; v-- {
		after[v] = slices.Clone(after[v+1])
		for _, b := range reads(v) {
			after[v][b] = v
		}
	}

	// held[v][b] marks b as resident while v runs; load[v] sums the sizes
	// of what is marked. A visit's own buckets are marked from the start,
	// so the budget covers every visit's reads. Every bucket is read.
	held := make([][]bool, nv)
	load := make([]int, nv)
	budget, largest := 0, 0
	for v := range held {
		held[v] = make([]bool, nb)
		for _, b := range reads(v) {
			held[v][b] = true
			load[v] += size[b]
			largest = max(largest, size[b])
		}
		budget = max(budget, load[v])
	}
	budget += largest
	fits := func(b, from, to int) bool {
		for v := from; v <= to; v++ {
			if !held[v][b] && load[v]+size[b] > budget {
				return false
			}
		}
		return true
	}
	keep := func(b, from, to int) {
		for v := from; v <= to; v++ {
			if !held[v][b] {
				held[v][b] = true
				load[v] += size[b]
			}
		}
	}

	resident := make([]bool, nb)
	// nextGather is the earliest gather the plan will need at or after
	// visit from, other than of bucket skip, assuming every bucket is
	// dropped once its current run of reads ends: the visit that needs
	// it and the bucket.
	nextGather := func(from, skip int) (int, int) {
		at, bucket := nv, -1
		for b := range nb {
			v := after[from][b]
			if resident[b] { // held through its run of reads, then gathered again
				for v < nv && after[v+1][b] == v+1 {
					v++
				}
				v = after[min(v+1, nv)][b]
			}
			if b == skip || v == nv {
				continue
			}
			if v < at || v == at && slices.Index(reads(v), b) < slices.Index(reads(v), bucket) {
				at, bucket = v, b
			}
		}
		return at, bucket
	}

	p := Plan{Launch: make([]int, nv), Need: make([]int, nv), Free: make([][]int, nv)}
	lastPos := make([]int, nb)
	gather := func(b int) {
		lastPos[b] = len(p.Seq)
		p.Seq = append(p.Seq, b)
		resident[b] = true
	}
	need := 0
	for v := range nv {
		for _, b := range reads(v) {
			if !resident[b] {
				gather(b)
			}
			need = max(need, lastPos[b]+1)
		}
		if len(p.Seq) == need {
			if at, b := nextGather(v, -1); at < nv && !resident[b] && fits(b, v, at) {
				gather(b)
				keep(b, v, at)
			}
		}
		p.Launch[v], p.Need[v] = len(p.Seq), need

		// Decide for the soonest-read bucket first: it has the best claim
		// on the budget.
		visit := slices.Clone(reads(v))
		slices.SortStableFunc(visit, func(a, b int) int { return after[v+1][a] - after[v+1][b] })
		for _, b := range visit {
			next := after[v+1][b]
			if v >= n && next < nv {
				keep(b, v+1, next) // backward drops a bucket only after its last read
				continue
			}
			if at, _ := nextGather(v+1, b); next < nv && next <= at && fits(b, v+1, next) {
				keep(b, v+1, next)
				continue
			}
			resident[b] = false
			p.Free[v] = append(p.Free[v], b)
		}
	}
	return p
}
