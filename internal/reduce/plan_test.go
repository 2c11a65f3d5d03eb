package reduce

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
)

// planBudget is PrefetchBudget's bound on the resident elements: the
// largest sum of one unit's buckets plus the largest single bucket.
func planBudget(unitBuckets [][]int, size []int) int {
	visit, largest := 0, 0
	for _, buckets := range unitBuckets {
		sum := 0
		for _, b := range buckets {
			sum += size[b]
			largest = max(largest, size[b])
		}
		visit = max(visit, sum)
	}
	return visit + largest
}

// planWorld is the world the tests' plans are made for: it only sets
// the gathers' Elems, and at 3 the chunks of most buckets are padded.
const planWorld = 3

// prefetchPlan is the plan within PrefetchBudget, the ZeRO-3 preset's.
func prefetchPlan(unitBuckets [][]int, size []int) Plan {
	return PlanStep(unitBuckets, size, PrefetchBudget(unitBuckets, size), planWorld, Link{}, nil)
}

// checkPlan checks a plan within PrefetchBudget: its budget is
// planBudget's, and it keeps the promises replayPlan checks.
func checkPlan(t *testing.T, p Plan, unitBuckets [][]int, size []int) {
	t.Helper()
	budget := planBudget(unitBuckets, size)
	if p.Budget != budget {
		t.Fatalf("plan's budget is %d elements, want %d", p.Budget, budget)
	}
	replayPlan(t, p, unitBuckets, size)
}

// replayPlan replays a plan over its layout and fails unless the step
// it schedules passes Step.Check; its gathers are AllGatherVs of at
// least one bucket on GatherElems' buffer, launched and waited for in
// order, each launched at a visit, and no two neighbours launched and
// read at the same visits (they would be one launch group); every
// bucket a visit reads is resident and landed when the visit runs, no
// bucket is gathered while it is resident, what is resident never
// exceeds the plan's budget (in elements), backward drops each bucket
// right after its last read, and nothing stays resident after the step.
func replayPlan(t *testing.T, p Plan, unitBuckets [][]int, size []int) {
	t.Helper()
	n, budget := len(unitBuckets), p.Budget
	layout := &Assignment{Buckets: make([][]int, len(size)), BucketElems: size}
	if err := Schedule(layout, unitBuckets, &p).Check(unitBuckets); err != nil {
		t.Fatalf("plan %v: %v", p.Gathers, err)
	}
	for i, g := range p.Gathers {
		if g.Kind != AllGatherV || len(g.Buckets) == 0 || g.Elems != GatherElems(size, g.Buckets, planWorld) {
			t.Fatalf("gather %d is %v (plan %v)", i, g, p.Gathers)
		}
		if i > 0 && (g.Submit < p.Gathers[i-1].Submit || g.Wait < p.Gathers[i-1].Wait) {
			t.Fatalf("gather %v launches or is waited for before %v (plan %v)", g, p.Gathers[i-1], p.Gathers)
		}
		if i > 0 && g.Submit == p.Gathers[i-1].Submit && g.Wait == p.Gathers[i-1].Wait {
			t.Fatalf("gathers %v and %v launch and are read at the same visits (plan %v)", p.Gathers[i-1], g, p.Gathers)
		}
	}
	lastRead := make([]int, len(size)) // the backward visit of the lowest unit reading b
	for u := n - 1; u >= 0; u-- {
		for _, b := range unitBuckets[u] {
			lastRead[b] = 2*n - 1 - u
		}
	}
	resident := make([]bool, len(size))
	landed := make([]bool, len(size))
	load, launched, waited := 0, 0, 0
	for v := range 2 * n {
		u := v
		if v >= n {
			u = 2*n - 1 - v
		}
		for ; launched < len(p.Gathers) && p.Gathers[launched].Submit == v; launched++ {
			for _, b := range p.Gathers[launched].Buckets {
				if resident[b] {
					t.Fatalf("visit %d gathers bucket %d while it is resident (plan %v)", v, b, p.Gathers)
				}
				resident[b], landed[b] = true, false
				load += size[b]
			}
		}
		if load > budget {
			t.Fatalf("visit %d holds %d elements, budget %d (plan %v)", v, load, budget, p.Gathers)
		}
		for ; waited < launched && p.Gathers[waited].Wait == v; waited++ {
			for _, b := range p.Gathers[waited].Buckets {
				landed[b] = true
			}
		}
		for _, b := range unitBuckets[u] {
			if !resident[b] || !landed[b] {
				t.Fatalf("visit %d reads bucket %d before it landed (plan %v)", v, b, p.Gathers)
			}
		}
		for _, b := range p.Free[v] {
			if v >= n && lastRead[b] != v {
				t.Fatalf("backward visit %d drops bucket %d, whose last read is visit %d", v, b, lastRead[b])
			}
			resident[b] = false
			load -= size[b]
		}
	}
	if launched != len(p.Gathers) || waited != launched || load != 0 {
		t.Fatalf("%d of %d gathers launched, %d waited for and %d elements resident after the step (plan %v)", launched, len(p.Gathers), waited, load, p.Gathers)
	}
}

// gathersString writes a plan's gathers as the documentation states
// them: each entry's buckets, launch visit → first reading visit.
func gathersString(gathers Step) string {
	var out []string
	for _, g := range gathers {
		out = append(out, fmt.Sprintf("%v %d→%d", g.Buckets, g.Submit, g.Wait))
	}
	return strings.Join(out, ", ")
}

// minGathers is the fewest gathers any plan within the budget makes, or
// −1 if none fits, by a dynamic program over the set of resident buckets
// (a bit mask) between visits. A visit gathers what it reads that is not resident, and what
// is then resident must fit the budget. After a forward visit any
// resident bucket may be dropped; after a backward visit exactly the
// buckets no later visit reads are, as the runtime frees them. Gathering
// only at the visit that reads a bucket loses nothing: an earlier
// gather only takes budget sooner.
func minGathers(unitBuckets [][]int, size []int) int {
	n, nv := len(unitBuckets), 2*len(unitBuckets)
	budget := planBudget(unitBuckets, size)
	reads := make([]uint, nv) // the buckets each visit reads
	for u, buckets := range unitBuckets {
		for _, b := range buckets {
			reads[u] |= 1 << b
			reads[nv-1-u] |= 1 << b
		}
	}
	weight := func(set uint) (w int) {
		for b, s := range size {
			w += s * int(set>>b&1)
		}
		return w
	}
	best := map[uint]int{0: 0} // resident set → fewest gathers so far
	for v := range nv {
		var later uint // the buckets a visit after v reads
		for _, r := range reads[v+1:] {
			later |= r
		}
		next := map[uint]int{}
		keep := func(set uint, gathers int) {
			if old, ok := next[set]; !ok || gathers < old {
				next[set] = gathers
			}
		}
		for set, gathers := range best {
			held := set | reads[v]
			if weight(held) > budget {
				continue
			}
			gathers += bits.OnesCount(reads[v] &^ set)
			if v >= n {
				keep(held&later, gathers)
				continue
			}
			for kept := held; ; kept = (kept - 1) & held { // every subset of held
				keep(kept, gathers)
				if kept == 0 {
					break
				}
			}
		}
		best = next
	}
	if g, ok := best[0]; ok {
		return g
	}
	return -1
}

// randomLayout draws 2…maxUnits units over fresh buckets, at most
// maxBuckets of them, some units without parameters and some sharing a
// bucket with the unit before, as a model's units share a bucket that
// straddles them.
func randomLayout(rng *rand.Rand, maxUnits, maxBuckets int, newSize func() int) ([][]int, []int) {
	var units [][]int
	var size []int
	for range 2 + rng.Intn(maxUnits-1) {
		var reads []int
		if rng.Intn(4) > 0 {
			if len(size) > 0 && rng.Intn(2) == 0 {
				reads = append(reads, len(size)-1)
			}
			for range min(1+rng.Intn(3), maxBuckets-len(size)) {
				reads = append(reads, len(size))
				size = append(size, newSize())
			}
		}
		units = append(units, reads)
	}
	return units, size
}

// TestPlanStepGathersTheFewest holds the plan to the oracle: on random
// layouts of equal-size buckets it is valid and makes exactly the
// fewest gathers the budget allows. Some units also read an earlier
// unit's bucket, as a tied weight does; without such reads every
// dropped bucket costs one gather whichever is dropped, and the oracle
// could not tell the farthest next read from any other. A layout whose
// backward must hold more than the budget has no valid plan and is
// skipped.
func TestPlanStepGathersTheFewest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for range 1500 {
		units, size := randomLayout(rng, 5, 6, func() int { return 1 })
		for u := range units {
			if b := rng.Intn(len(size) + 1); b < len(size) && rng.Intn(3) == 0 && !slices.Contains(units[u], b) {
				units[u] = append(units[u], b)
			}
		}
		want := minGathers(units, size)
		if want < 0 {
			continue
		}
		p := prefetchPlan(units, size)
		checkPlan(t, p, units, size)
		if got := p.Gathers.Buckets(AllGatherV); got != want {
			t.Fatalf("layout %v: plan %v makes %d gathers, the fewest is %d", units, p.Gathers, got, want)
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d of 1500 layouts have a valid plan", checked)
	}
}

// TestPlanStepKeepsItsPromises checks the plans of random layouts of
// mixed bucket sizes, where the farthest next read is only a heuristic,
// for an unmeasured link and for a link and compute drawn at random,
// which join gathers with different first readers. A link changes which
// launches run together, never which gathers happen or when.
func TestPlanStepKeepsItsPromises(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		units, size := randomLayout(rng, 9, 27, func() int { return 1 + rng.Intn(10)*(1+99*rng.Intn(2)) })
		cut := prefetchPlan(units, size)
		checkPlan(t, cut, units, size)
		compute := make([]float64, 2*len(units))
		for v := range compute {
			compute[v] = rng.Float64()
		}
		joined := PlanStep(units, size, PrefetchBudget(units, size), planWorld, Link{Alpha: 2 * rng.Float64()}, compute)
		checkPlan(t, joined, units, size)
		if got, want := launches(joined.Gathers), launches(cut.Gathers); got != want || fmt.Sprint(joined.Free) != fmt.Sprint(cut.Free) {
			t.Fatalf("layout %v: with a link the plan launches %s and frees %v, without %s and %v", units, got, joined.Free, want, cut.Free)
		}
	}
}

// launches writes each bucket a plan gathers with the visit that
// launches it, in launch order.
func launches(gathers Step) string {
	var out []string
	for _, g := range gathers {
		for _, b := range g.Buckets {
			out = append(out, fmt.Sprintf("%d@%d", b, g.Submit))
		}
	}
	return strings.Join(out, " ")
}

// TestPlanStepJoinsByTheLink pins which gathers launched at one visit a
// link joins. On the benchmark's layout u0 launches [3 2], which it
// reads, and [1], which u1 reads after u0's 0.3 ms: at the shaped
// link's α of 1.1 ms [1] joins them, and an α below u0's compute keeps
// them apart. ResNet-50 at NCCL bandwidth over 32 ranks
// (hw.DefaultCluster), one unit per parameter as simnet lays it out,
// keeps the unmeasured link's cut under both presets: a gather's α of
// about 0.28 ms is far below the forward compute between two buckets'
// first readers.
func TestPlanStepJoinsByTheLink(t *testing.T) {
	bench := [][]int{{3, 2}, {2, 1}, {1, 0}, {0}, {0}}
	benchSize := []int{198656, 198272, 198272, 198144}
	benchCompute := []float64{0.3e-3, 0.3e-3, 0.3e-3, 0.3e-3, 0.3e-3, 0.6e-3, 0.6e-3, 0.6e-3, 0.6e-3, 0.6e-3}
	for _, tc := range []struct {
		name    string
		link    Link
		gathers string
	}{
		{"shaped link", Link{Alpha: 1.1e-3, Beta: 2.5e-9}, "[3 2 1] 0→0, [0] 1→2, [3] 8→9"},
		{"α below u0's compute", Link{Alpha: 0.2e-3, Beta: 2.5e-9}, "[3 2] 0→0, [1] 0→1, [0] 1→2, [3] 8→9"},
		{"unmeasured", Link{}, "[3 2] 0→0, [1] 0→1, [0] 1→2, [3] 8→9"},
	} {
		t.Run("benchmark/"+tc.name, func(t *testing.T) {
			p := PlanStep(bench, benchSize, PrefetchBudget(bench, benchSize), planWorld, tc.link, benchCompute)
			replayPlan(t, p, bench, benchSize)
			if got := gathersString(p.Gathers); got != tc.gathers {
				t.Fatalf("plan gathers %s, want %s", got, tc.gathers)
			}
		})
	}

	const world = 32
	profile := models.ResNet50()
	sizes := profile.Sizes()
	assign, err := AssignBuckets(sizes, DefaultBucketCapBytes, 4, ReverseOrder(len(sizes)))
	if err != nil {
		t.Fatal(err)
	}
	units := UnitBuckets(assign, slices.Repeat([]int{1}, len(sizes)))
	cluster, total := hw.DefaultCluster(), profile.TotalParams()
	alpha := cluster.AllGatherSeconds(hw.NCCLLike, 4, world)
	link := Link{alpha, (cluster.AllGatherSeconds(hw.NCCLLike, 1<<26, world) - alpha) / (1 << 26)}
	if math.Abs(alpha-0.28e-3) > 0.02e-3 {
		t.Fatalf("a tiny AllGatherV costs %.3g s, the text says about 0.28 ms", alpha)
	}
	prof := hw.ProfileScaled(hw.GPU, total, profile.ComputeIntensity)
	compute := make([]float64, 2*len(sizes)) // each visit's share of its pass, by its parameter's size
	for u, n := range sizes {
		compute[u] = prof.ForwardSeconds * float64(n) / float64(total)
		compute[2*len(sizes)-1-u] = prof.BackwardSeconds * float64(n) / float64(total)
	}
	whole := 0
	for _, n := range assign.BucketElems {
		whole += n
	}
	for _, budget := range []struct {
		name  string
		elems int
	}{{"zero2", whole}, {"zero3", PrefetchBudget(units, assign.BucketElems)}} {
		t.Run("resnet50-nccl-32/"+budget.name, func(t *testing.T) {
			p := PlanStep(units, assign.BucketElems, budget.elems, world, link, compute)
			cut := PlanStep(units, assign.BucketElems, budget.elems, world, Link{}, nil)
			if got, want := gathersString(p.Gathers), gathersString(cut.Gathers); got != want {
				t.Fatalf("with the NCCL link the plan gathers %s, without %s", got, want)
			}
			if !slices.ContainsFunc(cut.Gathers[1:], func(g Collective) bool { return g.Submit == cut.Gathers[0].Submit }) {
				t.Fatalf("the cut %s launches one gather at the first visit: nothing a link could join", gathersString(cut.Gathers))
			}
		})
	}
}

// TestFitLinkTakesTheLowerEnvelope: samples on a known line, each
// doubled by a slower copy and joined by a lone slow outlier, fit that
// line; one sampled size fits nothing, and noise that tilts the line
// below zero is clamped. Noisy samples of many sizes fit the same bits
// every time, as every rank must.
func TestFitLinkTakesTheLowerEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var noisyBytes, noisySeconds []float64
	for range 64 {
		x := float64(1 + rng.Intn(40))
		noisyBytes, noisySeconds = append(noisyBytes, x), append(noisySeconds, 1e-3+1e-5*x+1e-4*rng.Float64())
	}
	first := FitLink(noisyBytes, noisySeconds)
	for range 50 {
		if got := FitLink(noisyBytes, noisySeconds); got != first {
			t.Fatalf("the same samples fit %+v, then %+v", first, got)
		}
	}
	want := Link{Alpha: 1e-3, Beta: 2.5e-9}
	var bytes, seconds []float64
	for _, x := range []float64{1e5, 4e5, 8e5, 1.6e6} {
		t := want.Alpha + want.Beta*x
		bytes, seconds = append(bytes, x, x), append(seconds, t+0.7e-3, t)
	}
	bytes, seconds = append(bytes, 4e5), append(seconds, 9e-3)
	got := FitLink(bytes, seconds)
	if math.Abs(got.Alpha-want.Alpha) > 1e-9 || math.Abs(got.Beta-want.Beta) > 1e-15 {
		t.Fatalf("FitLink gives %+v, want %+v", got, want)
	}
	if got := FitLink([]float64{8e5, 8e5}, []float64{2e-3, 3e-3}); got != (Link{}) {
		t.Fatalf("one size fits %+v, want the zero Link", got)
	}
	if got := FitLink([]float64{1e5, 2e5}, []float64{2e-3, 1e-3}); got.Beta != 0 || got.Alpha != 1.5e-3 {
		t.Fatalf("a falling line fits %+v, want β 0 and α the mean 1.5 ms", got)
	}
	if got := FitLink([]float64{1e5, 2e5}, []float64{1e-3, 3e-3}); got.Alpha != 0 || got.Beta <= 0 {
		t.Fatalf("a line through a negative intercept fits %+v, want α 0 and a positive β", got)
	}
}

// TestPlanOfPinnedLayouts pins plans whose shape the documentation
// states.
func TestPlanOfPinnedLayouts(t *testing.T) {
	for _, tc := range []struct {
		name       string
		units      [][]int
		size       []int
		gathers    string
		fewestPlus int // gathers above the fewest
	}{
		// The benchmark's model: four buckets, every block reading its
		// own and, by its last bias, the next block's. Buckets 0, 1 and
		// 2 stay gathered across the turn; bucket 3, read first in
		// forward and last in backward, is dropped to make room for 0
		// and gathered again for backward. The first visit launches 3, 2
		// and 1, and reads only 3 and 2: [3 2] is one gather, [1] the next.
		{"benchmark", [][]int{{3, 2}, {2, 1}, {1, 0}, {0}, {0}}, []int{198656, 198272, 198272, 198144},
			"[3 2] 0→0, [1] 0→1, [0] 1→2, [3] 8→9", 0},
		// Unequal sizes: making room for bucket 3 drops buckets 0 and 1,
		// whose next reads are farthest away, where dropping bucket 2
		// alone would do. One gather more than the fewest.
		{"unequal sizes", [][]int{{0}, {1}, {2}, {3}}, []int{1, 1, 4, 4},
			"[0] 0→0, [1] 0→1, [2] 0→2, [3] 2→3, [1] 5→6, [0] 5→7", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prefetchPlan(tc.units, tc.size)
			checkPlan(t, p, tc.units, tc.size)
			if got := gathersString(p.Gathers); got != tc.gathers {
				t.Fatalf("plan gathers %s, want %s", got, tc.gathers)
			}
			if got, want := p.Gathers.Buckets(AllGatherV), minGathers(tc.units, tc.size)+tc.fewestPlus; got != want {
				t.Fatalf("plan %v makes %d gathers, want %d", p.Gathers, got, want)
			}
		})
	}
}

// TestPlanStepWithinTheWholeModel checks the ZeRO-2 preset's plan: with
// a budget that holds every bucket, nothing is dropped before its last
// read, so on random layouts — tied weights included — the plan gathers
// each bucket exactly once, launches every gather at the first visit,
// and frees nothing in forward.
func TestPlanStepWithinTheWholeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		units, size := randomLayout(rng, 9, 27, func() int { return 1 + rng.Intn(10)*(1+99*rng.Intn(2)) })
		for u := range units {
			if b := rng.Intn(len(size) + 1); b < len(size) && rng.Intn(3) == 0 && !slices.Contains(units[u], b) {
				units[u] = append(units[u], b)
			}
		}
		total := 0
		for _, n := range size {
			total += n
		}
		p := PlanStep(units, size, total, planWorld, Link{}, nil)
		replayPlan(t, p, units, size)
		nb := len(size)
		each := make([]int, nb)
		for b := range each {
			each[b] = b
		}
		var gathered []int
		first := 0 // buckets gathered at the first visit
		for _, g := range p.Gathers {
			gathered = append(gathered, g.Buckets...)
			if g.Submit == 0 {
				first += len(g.Buckets)
			}
		}
		if !slices.Equal(slices.Sorted(slices.Values(gathered)), each) {
			t.Fatalf("layout %v: plan %v does not gather each of %d buckets once", units, p.Gathers, nb)
		}
		if first != nb {
			t.Fatalf("layout %v: %d of %d gathers launched at the first visit", units, first, nb)
		}
		for v, free := range p.Free[:len(units)] {
			if len(free) > 0 {
				t.Fatalf("layout %v: forward visit %d frees buckets %v", units, v, free)
			}
		}
	}
}
