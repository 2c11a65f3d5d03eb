package comm

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// symbolic is every rank's buffer with values replaced by their
// provenance, so a schedule can be run with no goroutines and no mesh.
// The buffer is tracked per atom — a maximal range no step of the
// schedules under test splits — and vals[rank][atom] is the fold chain
// the atom holds on that rank: the ranks whose contributions went into
// it, in fold order.
type symbolic struct {
	k, n int
	// bounds are the atoms' boundaries, ascending; atom maps a boundary
	// to its index (n maps to the number of atoms).
	bounds []int
	atom   map[int]int
	vals   [][][]int
}

// newSymbolic is the symbolic input for the generators that will be run
// on it: its atoms are cut at every boundary any of their steps names,
// and every atom of rank r's buffer holds r's own contribution.
func newSymbolic(k, n int, gens ...func(rank int) []step) *symbolic {
	bounds := []int{0, n}
	for _, gen := range gens {
		for r := 0; r < k; r++ {
			for _, st := range gen(r) {
				bounds = append(bounds, st.sLo, st.sHi, st.rLo, st.rHi)
				if st.uLo < st.uHi {
					bounds = append(bounds, st.uLo, st.uHi)
				}
			}
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	s := &symbolic{k: k, n: n, bounds: bounds, atom: map[int]int{}, vals: make([][][]int, k)}
	for i, b := range bounds {
		s.atom[b] = i
	}
	for r := range s.vals {
		s.vals[r] = make([][]int, len(bounds)-1)
		for i := range s.vals[r] {
			s.vals[r][i] = []int{r}
		}
	}
	return s
}

// chunk returns what rank holds in chunkBounds chunk c (nil if empty).
func (s *symbolic) chunk(rank, c int) [][]int {
	lo, hi := chunkBounds(s.n, s.k, c)
	return s.vals[rank][s.atom[lo]:s.atom[hi]]
}

// atoms returns the atom indices covering [lo,hi), and whether both ends
// are boundaries newSymbolic was given.
func (s *symbolic) atoms(lo, hi int) (int, int, bool) {
	a, okA := s.atom[lo]
	b, okB := s.atom[hi]
	return a, b, okA && okB
}

// symFrame is a frame of the symbolic run: the atoms of the range it was
// shipped from, [lo,hi), as they were when its step began.
type symFrame struct {
	to, lo, hi int
	kind       frameKind
	vals       [][]int
	matched    bool
}

// run executes every rank's step list (gen(rank)) against the symbolic
// buffers under runSteps' rules. Sends are modelled as rendezvous — a
// send completes only once its receiver has reached the matching
// receive, the most blocking behaviour a transport may have — so a
// schedule that finishes here has no cycle of blocking waits under any
// buffering. A step's send ships its range as it was when the step
// began, and each link matches its sends with its receives in FIFO
// order. A step with no receive posts its send and moves on; a step
// that receives waits for its own send, and lands the frame only once
// no posted float send still reads the range it writes; a codec send
// that quantizes its range in place (a reduced value, or a range the
// step also receives into) starts only once none reads that; and a rank
// finishes once every send it posted has completed. A local send queues
// its frame for the rank's next local receive. A float frame folded
// INTO the buffer extends the chain it carries with the receiver's
// (received ++ own, the order ringSteps documents); one folded UNDER it
// is the mirror image, own ++ received. A codec frame is one quantized
// contribution added to the buffer's chain (own ++ received, under:
// received ++ own — one finite addition, which commutes). run fails if a
// matched pair disagrees on the length or the lane, if a range is off
// the atom boundaries, or if the ranks stop making progress.
func (s *symbolic) run(gen func(rank int) []step) error {
	k := s.k
	steps := make([][]step, k)
	for r := range steps {
		steps[r] = gen(r)
	}
	pc := make([]int, k)
	entered := make([]bool, k)
	own := make([]*symFrame, k)    // the current step's send
	got := make([]*symFrame, k)    // the current step's frame, once taken
	pend := make([][]*symFrame, k) // posted, unmatched, oldest first
	local := make([][]*symFrame, k)
	reading := func(a, lo, hi int) bool {
		return slices.ContainsFunc(pend[a], func(f *symFrame) bool { return f.kind == floats && f.lo < hi && lo < f.hi })
	}
	for {
		progress, running := false, false
		for a := 0; a < k; a++ {
			if pc[a] == len(steps[a]) {
				running = running || len(pend[a]) > 0
				continue
			}
			running = true
			st := steps[a][pc[a]]
			if st.to < -1 || st.from < -1 || st.to >= k || st.from >= k {
				return fmt.Errorf("rank %d step %d: bad peers to=%d from=%d", a, pc[a], st.to, st.from)
			}
			if !entered[a] {
				if st.to >= 0 && st.kind != floats && (st.kind == reduced || st.from >= 0) && reading(a, st.sLo, st.sHi) {
					continue
				}
				if st.to >= 0 {
					lo, hi, ok := s.atoms(st.sLo, st.sHi)
					if !ok {
						return fmt.Errorf("rank %d step %d ships [%d,%d), off the boundaries", a, pc[a], st.sLo, st.sHi)
					}
					f := &symFrame{to: st.to, lo: st.sLo, hi: st.sHi, kind: st.kind, vals: slices.Clone(s.vals[a][lo:hi])}
					if st.to == a {
						local[a] = append(local[a], f)
					} else {
						pend[a] = append(pend[a], f)
						own[a] = f
					}
				}
				entered[a], progress = true, true
			}
			if st.from >= 0 && got[a] == nil {
				if st.from == a {
					if len(local[a]) == 0 {
						return fmt.Errorf("rank %d step %d: a local receive with no local frame queued", a, pc[a])
					}
					got[a], local[a] = local[a][0], local[a][1:]
				} else if i := slices.IndexFunc(pend[st.from], func(f *symFrame) bool { return f.to == a }); i >= 0 {
					got[a] = pend[st.from][i]
					pend[st.from] = slices.Delete(pend[st.from], i, i+1)
					got[a].matched = true
				} else {
					continue
				}
				if f := got[a]; f.hi-f.lo != st.rHi-st.rLo || (f.kind == floats) != (st.kind == floats) {
					return fmt.Errorf("rank %d step %d expects [%d,%d) (kind %d), rank %d shipped [%d,%d) (kind %d)",
						a, pc[a], st.rLo, st.rHi, st.kind, st.from, f.lo, f.hi, f.kind)
				}
				progress = true
			}
			if st.from >= 0 {
				if (own[a] != nil && !own[a].matched) || reading(a, st.rLo, st.rHi) {
					continue
				}
				if err := s.land(a, st, got[a]); err != nil {
					return fmt.Errorf("rank %d step %d: %v", a, pc[a], err)
				}
			}
			pc[a]++
			entered[a], own[a], got[a], progress = false, nil, nil, true
		}
		if !running {
			return nil
		}
		if !progress {
			return fmt.Errorf("blocked: ranks stopped at steps %v", pc)
		}
	}
}

// land lands frame f into rank's buffer as st says.
func (s *symbolic) land(rank int, st step, f *symFrame) error {
	lo, hi, ok := s.atoms(st.rLo, st.rHi)
	uLo, uHi := hi, hi // no atom folds under, unless the step names some
	if st.uLo < st.uHi {
		var okU bool
		uLo, uHi, okU = s.atoms(st.uLo, st.uHi)
		ok = ok && okU && st.fold && st.rLo <= st.uLo && st.uHi <= st.rHi
	}
	if !ok || hi-lo != len(f.vals) {
		return fmt.Errorf("[%d,%d) folding under [%d,%d) is off the boundaries newSymbolic was given, or not a sub-range of a fold",
			st.rLo, st.rHi, st.uLo, st.uHi)
	}
	for j, in := range f.vals {
		i := lo + j
		if s.bounds[i+1]-st.rLo != s.bounds[s.atom[f.lo]+j+1]-f.lo {
			return fmt.Errorf("[%d,%d) and the shipped [%d,%d) are cut into different atoms", st.rLo, st.rHi, f.lo, f.hi)
		}
		mine := s.vals[rank][i]
		if under := uLo <= i && i < uHi; st.fold && under == (f.kind == floats) {
			in = append(slices.Clone(mine), in...)
		} else if st.fold {
			in = append(slices.Clone(in), mine...)
		}
		s.vals[rank][i] = slices.Clone(in)
	}
	return nil
}

// ringChain is the documented reduce-scatter fold chain of chunk c:
// x[c+1], x[c+2], ..., x[c-1], x[c].
func ringChain(c, k int) []int {
	chain := make([]int, k)
	for j := range chain {
		chain[j] = (c + 1 + j) % k
	}
	return chain
}

// allReduced fails unless the schedule gen, run on fresh symbolic
// buffers, leaves every rank holding every rank's contribution exactly
// once in every atom of [0,n), folded in the same order on all ranks.
func allReduced(k, n int, gen func(rank int) []step) error {
	s := newSymbolic(k, n, gen)
	if err := s.run(gen); err != nil {
		return err
	}
	for r := 0; r < k; r++ {
		for i, chain := range s.vals[r][:s.atom[n]] {
			got := slices.Clone(chain)
			slices.Sort(got)
			if !slices.Equal(got, allRanks(k)) {
				return fmt.Errorf("rank %d atom %d folded %v, want every rank once", r, i, chain)
			}
			if !slices.Equal(chain, s.vals[0][i]) {
				return fmt.Errorf("rank %d atom %d folded %v, rank 0 folded %v", r, i, chain, s.vals[0][i])
			}
		}
	}
	return nil
}

// ascendingEverywhere fails unless every rank holds, in every chunk of
// [0,n), the compressed reduce-scatter's chain: every rank's
// contribution in rank order.
func (s *symbolic) ascendingEverywhere() error {
	for r := 0; r < s.k; r++ {
		for c := 0; c < s.k; c++ {
			for _, got := range s.chunk(r, c) {
				if !slices.Equal(got, allRanks(s.k)) {
					return fmt.Errorf("rank %d holds %v in chunk %d, want every rank in rank order", r, got, c)
				}
			}
		}
	}
	return nil
}

// ringReducedEverywhere fails unless every rank holds, in every chunk,
// the documented reduce-scatter chain of that chunk.
func (s *symbolic) ringReducedEverywhere() error {
	for r := 0; r < s.k; r++ {
		for c := 0; c < s.k; c++ {
			for _, got := range s.chunk(r, c) {
				if want := ringChain(c, s.k); !slices.Equal(got, want) {
					return fmt.Errorf("rank %d holds %v in chunk %d, want %v", r, got, c, want)
				}
			}
		}
	}
	return nil
}

// TestSchedulesStatically checks every step generator at worlds 1-33
// and the buffer sizes around the chunking edge cases, on the schedule
// alone and under runSteps' rules (posted sends, their joins, local
// steps, codec frames): sends meet receives of equal length and lane in
// per-link FIFO order, nothing blocks forever, the ring reduce-scatter
// folds every chunk exactly once per rank along the documented chain and
// finishes it on its owner, the all-gather then leaves every chunk on
// every rank, the ring AllReduce list is those two passes back to back —
// except between two ranks up to ringPairMaxElems, where it is one
// exchange that leaves the same chain in every chunk on both — the
// compressed reduce-scatter folds every owner's chunk in rank order and
// its all-gather copies that chain everywhere, the binomial pair folds
// every rank exactly once and delivers the root's buffer verbatim,
// AllGather leaves every rank's slot on every rank, and the whole
// AllReduce lists — Naive, Tree, DoubleTree across its pipeline chunk
// edges, the compressed pair exchange, Hierarchical and the compressed
// leader ring over every layout the numeric suites use, and at the
// exchange's size limit wherever two leaders meet — leave every
// contribution on every rank exactly once, identically.
func TestSchedulesStatically(t *testing.T) {
	const chunk = doubleTreeChunkElems
	for k := 1; k <= 33; k++ {
		for _, n := range []int{0, 1, 2, k - 1, k, k + 1, 4099, 2 * chunk, 2*chunk + 1, 9*chunk + 5,
			ringPairMaxElems - 1, ringPairMaxElems, ringPairMaxElems + 1} {
			// The two passes, as ReduceScatterV and AllGatherV run them.
			scatter := func(r int) []step { return ringSteps(r, k, n, r-1, true) }
			gather := func(r int) []step { return ringSteps(r, k, n, r, false) }
			s := newSymbolic(k, n, scatter, gather)
			if err := s.run(scatter); err != nil {
				t.Fatalf("ring reduce-scatter k=%d n=%d: %v", k, n, err)
			}
			for c := 0; c < k; c++ {
				for _, got := range s.chunk(c, c) {
					if want := ringChain(c, k); !slices.Equal(got, want) {
						t.Fatalf("ring reduce-scatter k=%d n=%d: owner of chunk %d folded %v, want %v", k, n, c, got, want)
					}
				}
			}
			if err := s.run(gather); err != nil {
				t.Fatalf("ring all-gather k=%d n=%d: %v", k, n, err)
			}
			if err := s.ringReducedEverywhere(); err != nil {
				t.Fatalf("ring all-gather k=%d n=%d: %v", k, n, err)
			}

			// The ring AllReduce, as ringAllReduce, Barrier and the
			// leader ring obtain it.
			allReduce := func(r int) []step { return ringAllReduceSteps(r, k, n) }
			s = newSymbolic(k, n, allReduce)
			if err := s.run(allReduce); err != nil {
				t.Fatalf("ring allreduce k=%d n=%d: %v", k, n, err)
			}
			if err := s.ringReducedEverywhere(); err != nil {
				t.Fatalf("ring allreduce k=%d n=%d: %v", k, n, err)
			}
			for r := 0; r < k; r++ {
				want := append(scatter(r), gather(r)...)
				if k == 2 && n <= ringPairMaxElems {
					want = []step{ringPairStep(r, n)}
				}
				if got := allReduce(r); !slices.Equal(got, want) {
					t.Fatalf("ring allreduce k=%d n=%d rank %d: steps %+v, want %+v", k, n, r, got, want)
				}
			}

			// The compressed builders: stage 1 alone, as
			// CompressedReduceScatterV runs it, both stages, the pair.
			stage1 := func(r int) []step { return compressedScatterSteps(r, k, n) }
			s = newSymbolic(k, n, stage1)
			if err := s.run(stage1); err != nil {
				t.Fatalf("compressed reduce-scatter k=%d n=%d: %v", k, n, err)
			}
			for c := 0; c < k; c++ {
				for _, got := range s.chunk(c, c) {
					if !slices.Equal(got, allRanks(k)) {
						t.Fatalf("compressed reduce-scatter k=%d n=%d: owner of chunk %d folded %v, want every rank in rank order", k, n, c, got)
					}
				}
			}
			twoStages := func(r int) []step { return compressedSteps(r, k, n, false) }
			s = newSymbolic(k, n, twoStages)
			if err := s.run(twoStages); err != nil {
				t.Fatalf("compressed allreduce k=%d n=%d: %v", k, n, err)
			}
			if err := s.ascendingEverywhere(); err != nil {
				t.Fatalf("compressed allreduce k=%d n=%d: %v", k, n, err)
			}
			if k == 2 {
				if err := allReduced(k, n, func(r int) []step { return compressedSteps(r, k, n, true) }); err != nil {
					t.Fatalf("compressed pair k=%d n=%d: %v", k, n, err)
				}
			}
			if n >= ringPairMaxElems-1 {
				hierarchicalLayouts(t, k, n, true)
				continue
			}

			// The binomial pair, from every kind of broadcast root.
			s = newSymbolic(k, n)
			if err := s.run(func(r int) []step { return binomialReduceSteps(r, k, n) }); err != nil {
				t.Fatalf("binomial reduce k=%d n=%d: %v", k, n, err)
			}
			for _, chain := range s.vals[0] {
				got := slices.Clone(chain)
				slices.Sort(got)
				if !slices.Equal(got, allRanks(k)) {
					t.Fatalf("binomial reduce k=%d n=%d: root folded %v, want every rank once", k, n, chain)
				}
			}
			for _, root := range []int{0, 1 % k, k / 2, k - 1} {
				if err := s.run(func(r int) []step { return binomialBroadcastSteps(r, k, n, root) }); err != nil {
					t.Fatalf("binomial broadcast k=%d n=%d root=%d: %v", k, n, root, err)
				}
				for r := 0; r < k; r++ {
					for i, got := range s.vals[r] {
						if !slices.Equal(got, s.vals[root][i]) {
							t.Fatalf("binomial broadcast k=%d n=%d root=%d: rank %d holds %v, root holds %v", k, n, root, r, got, s.vals[root][i])
						}
					}
				}
			}

			if err := allReduced(k, n, func(r int) []step { return treeSteps(r, k, n) }); err != nil {
				t.Fatalf("tree k=%d n=%d: %v", k, n, err)
			}
			if err := allReduced(k, n, func(r int) []step { return doubleTreeSteps(r, k, n) }); err != nil {
				t.Fatalf("double tree k=%d n=%d: %v", k, n, err)
			}
			if err := allReduced(k, n, func(r int) []step { return naiveSteps(r, k, n) }); err != nil {
				t.Fatalf("naive k=%d n=%d: %v", k, n, err)
			}
			gather = func(r int) []step { return allGatherSteps(r, k, n) }
			s = newSymbolic(k, k*n, gather)
			if err := s.run(gather); err != nil {
				t.Fatalf("allgather k=%d n=%d: %v", k, n, err)
			}
			for r := 0; r < k; r++ {
				for p := 0; p < k; p++ {
					for _, got := range s.vals[r][s.atom[p*n]:s.atom[(p+1)*n]] {
						if !slices.Equal(got, []int{p}) {
							t.Fatalf("allgather k=%d n=%d: rank %d holds %v in slot %d", k, n, r, got, p)
						}
					}
				}
			}
			if n <= 4099 {
				hierarchicalLayouts(t, k, n, false)
			}
		}
	}
}

// TestSymbolicRunModelsTheJoinRule: Naive shipping its accumulator
// instead of a snapshot must be refused by the checker from three ranks
// up — its first fold waits for every posted send, and a blocking
// transport never completes them — and pass at two, where no cycle
// forms.
func TestSymbolicRunModelsTheJoinRule(t *testing.T) {
	const n = 5
	for k := 2; k <= 5; k++ {
		fromAcc := func(r int) []step {
			steps := naiveSteps(r, k, n)
			for i := range steps {
				if steps[i].to >= 0 {
					steps[i].sLo, steps[i].sHi = 0, n
				}
			}
			return steps
		}
		err := newSymbolic(k, 2*n, fromAcc).run(fromAcc)
		if blocked := err != nil && strings.Contains(err.Error(), "blocked"); blocked != (k >= 3) {
			t.Fatalf("k=%d: got %v, want blocked %v", k, err, k >= 3)
		}
	}
}

// hierarchicalLayouts checks hierarchicalSteps, with the ring and with
// the compressed schedule (in two stages, and as the pair where two
// leaders meet) on top, over every layout the numeric suites use at
// world k — or, with twoLeaders, only those whose leader ring has two
// members, the ring that is one exchange.
func hierarchicalLayouts(t *testing.T, k, n int, twoLeaders bool) {
	layouts := hostLayouts(k)
	if k == 6 {
		layouts["nlevel-uneven"] = nLevelUnevenHosts
	}
	if k == 8 {
		layouts["nlevel-pods"] = nLevelPodHosts
	}
	for name, hosts := range layouts {
		if hosts == nil {
			continue
		}
		topo := NewTopology(hosts)
		if twoLeaders && len(topo.levelLeaders(0)) != 2 {
			continue
		}
		tops := map[string]func(me, k int) []step{
			"ring":       func(me, k int) []step { return ringAllReduceSteps(me, k, n) },
			"compressed": func(me, k int) []step { return compressedSteps(me, k, n, false) },
			"pair":       func(me, k int) []step { return compressedSteps(me, k, n, k == 2) },
		}
		for top, steps := range tops {
			if err := allReduced(k, n, func(r int) []step { return hierarchicalSteps(r, n, topo, steps) }); err != nil {
				t.Fatalf("hierarchical %s, %s on top, k=%d n=%d: %v", name, top, k, n, err)
			}
		}
	}
}

// truncatingMesh drops the last element of the first non-empty frame it
// receives on one lane: the float lane, or with bytes the byte lane.
type truncatingMesh struct {
	transport.Mesh
	bytes bool
	done  atomic.Bool
}

func (m *truncatingMesh) Recv(from int, tag uint64) ([]float32, error) {
	buf, err := m.Mesh.Recv(from, tag)
	if err == nil && !m.bytes && len(buf) > 0 && m.done.CompareAndSwap(false, true) {
		buf = buf[:len(buf)-1]
	}
	return buf, err
}

func (m *truncatingMesh) SendBytes(to int, tag uint64, data []byte) error {
	bm, _ := transport.ByteLanes(m.Mesh)
	return bm.SendBytes(to, tag, data)
}

func (m *truncatingMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, _ := transport.ByteLanes(m.Mesh)
	buf, err := bm.RecvBytes(from, tag)
	if err == nil && m.bytes && len(buf) > 0 && m.done.CompareAndSwap(false, true) {
		buf = buf[:len(buf)-1]
	}
	return buf, err
}

// TestShortFrameIsAnError: a frame shorter than the schedule fixed must
// fail the collective on the rank that received it, with the one error
// that names collective, rank, peer, step and lengths — elements on the
// float lane, bytes on the byte lane — never a short copy that leaves
// stale elements in a "bitwise-identical" result, nor a codec frame split
// in the wrong place. Rank and peer are mesh ranks whatever subset of the
// ranks a level of the hierarchy runs over, and step counts through the
// whole list.
func TestShortFrameIsAnError(t *testing.T) {
	const victim, n = 1, 12
	sum := func(g ProcessGroup, data []float32) Work { return g.AllReduce(data, Sum) }
	fp16 := func(g ProcessGroup, data []float32) Work {
		return CompressedAllReduce(g, data, Sum, Float16Codec{}, make([]float32, n))
	}
	const chunkBytes = 2 * n / 3 // an fp16 chunk of a world of three
	cases := []struct {
		name string
		algo Algorithm
		// hosts lays the ranks out; nil is a world of three without a
		// topology.
		hosts      []string
		unit       string
		collective string
		peer, step int
		want       int
		run        func(g ProcessGroup, data []float32) Work
	}{
		{"AllReduce", Ring, nil, "elements", "ring allreduce", 0, 0, n / 3, sum},
		// Two ranks (Ring reads no layout): the one exchange step carries
		// the whole buffer.
		{"AllReducePair", Ring, []string{"a", "b"}, "elements", "ring allreduce", 0, 0, n, sum},
		{"ReduceScatterV", Ring, nil, "elements", "ring reduce-scatter", 0, 0, n / 3, func(g ProcessGroup, data []float32) Work {
			return g.(ShardedGroup).ReduceScatterV(data, Avg)
		}},
		{"AllGatherV", Ring, nil, "elements", "ring all-gather", 0, 0, n / 3, func(g ProcessGroup, data []float32) Work { return g.(ShardedGroup).AllGatherV(data) }},
		{"Broadcast", Ring, nil, "elements", "binomial broadcast", 0, 0, n, func(g ProcessGroup, data []float32) Work { return g.Broadcast(data, 0) }},
		// Rank 1 sends its buffer up, then takes the result from rank 0.
		{"Tree", Tree, nil, "elements", "tree allreduce", 0, 1, n, sum},
		// Rank 1 is the root of the first half's tree; rank 0 is its
		// left child.
		{"DoubleTree", DoubleTree, nil, "elements", "double-tree allreduce", 0, 0, n / 2, sum},
		// Rank 1 leads host b = {1, 2}: ranks 0 and 1 of that level.
		{"Hierarchical", Hierarchical, []string{"a", "b", "b"}, "elements", "hierarchical allreduce", 2, 0, n, sum},
		// Rank 1 is the other member of rank 0's host: one step up, and
		// the frame that comes back down is its second.
		{"Hierarchical3Level", Hierarchical, nLevelUnevenHosts, "elements", "hierarchical allreduce", 0, 1, n, sum},
		// The byte lane. Two ranks: one frame holding both chunks.
		{"CompressedPair", Ring, []string{"a", "b"}, "bytes", "compressed allreduce", 0, 0, 2 * n, fp16},
		// Three: rank 1 posts its two frames, quantizes its own chunk,
		// then takes rank 0's contribution to it.
		{"CompressedTwoStages", Ring, nil, "bytes", "compressed allreduce", 0, 3, chunkBytes, fp16},
		{"CompressedReduceScatterV", Ring, nil, "bytes", "compressed reduce-scatter", 0, 3, chunkBytes, func(g ProcessGroup, data []float32) Work {
			return g.(ShardedGroup).CompressedReduceScatterV(data, Avg, Float16Codec{}, nil)
		}},
		// Rank 1 folds rank 2's float buffer up, then meets leader 0 in
		// the compressed pair exchange.
		{"CompressedLeaderRing", Hierarchical, []string{"a", "b", "b"}, "bytes", "hierarchical allreduce", 0, 1, 2 * n, fp16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			world, opts := 3, Options{Algorithm: tc.algo}
			if tc.hosts != nil {
				world, opts.Topology = len(tc.hosts), NewTopology(tc.hosts)
			}
			meshes := transport.NewInProcMeshes(world)
			meshes[victim] = &truncatingMesh{Mesh: meshes[victim], bytes: tc.unit == "bytes"}
			groups := groupsOver(meshes, opts)
			errs := make([]error, world)
			var wg sync.WaitGroup
			for r := range groups {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = tc.run(groups[rank], make([]float32, n)).Wait()
					if rank == victim {
						// The victim left the schedule; release the peers
						// still waiting on it.
						for _, g := range groups {
							AbortGroup(g)
						}
					}
				}(r)
			}
			wg.Wait()
			var fe *frameLenError
			if !errors.As(errs[victim], &fe) {
				t.Fatalf("rank %d: got %v, want a frame length error", victim, errs[victim])
			}
			want := frameLenError{collective: tc.collective, rank: victim, peer: tc.peer, step: tc.step, got: tc.want - 1, want: tc.want, unit: tc.unit}
			if *fe != want {
				t.Fatalf("got %+v (%v), want %+v", *fe, fe, want)
			}
		})
	}
}

// stuckSendMesh fails every receive at once while its sends stay
// blocked until release is closed, counting the sends in flight.
type stuckSendMesh struct {
	transport.Mesh
	release  chan struct{}
	inFlight atomic.Int32
}

var errRecvFailed = errors.New("recv failed")

func (m *stuckSendMesh) Send(to int, tag uint64, data []float32) error {
	m.inFlight.Add(1)
	defer m.inFlight.Add(-1)
	<-m.release
	return m.Mesh.Send(to, tag, data)
}

func (m *stuckSendMesh) Recv(int, uint64) ([]float32, error) { return nil, errRecvFailed }

// TestFanOutJoinsSendsOnRecvError: a fan-out collective — Naive and
// AllGather, whose step lists post k-1 sends before the first receive —
// whose receive fails must not report completion while its posted sends
// still run: runSteps joins every one of them before it returns (and
// the package's leak check finds no goroutine left behind), since they
// read a buffer the caller owns again once Wait returns.
func TestFanOutJoinsSendsOnRecvError(t *testing.T) {
	const world, n = 3, 6
	cases := map[string]func(g ProcessGroup) Work{
		"naive": func(g ProcessGroup) Work { return g.AllReduce(make([]float32, n), Sum) },
		"allgather": func(g ProcessGroup) Work {
			return g.AllGather([][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}, make([]float32, n))
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			meshes := transport.NewInProcMeshes(world)
			defer func() {
				for _, m := range meshes {
					m.Close()
				}
			}()
			stuck := &stuckSendMesh{Mesh: meshes[0], release: make(chan struct{})}
			g := NewGroup(stuck, Options{Algorithm: Naive})
			defer g.Close()
			done := make(chan error, 1)
			go func() { done <- run(g).Wait() }()
			select {
			case err := <-done:
				t.Fatalf("Wait returned %v before its sends were released", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(stuck.release)
			if err := <-done; !errors.Is(err, errRecvFailed) {
				t.Fatalf("Wait returned %v, want the receive error", err)
			}
			if inFlight := stuck.inFlight.Load(); inFlight != 0 {
				t.Fatalf("Wait returned with %d sends in flight", inFlight)
			}
		})
	}
}
