package comm

import (
	"errors"
	"fmt"
	"slices"
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
	// atom maps a step boundary to the index of the atom starting there
	// (n maps to the number of atoms).
	atom map[int]int
	vals [][][]int
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
	s := &symbolic{k: k, n: n, atom: map[int]int{}, vals: make([][][]int, k)}
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

// run executes every rank's step list (gen(rank)) against the symbolic
// buffers. Sends are modelled as rendezvous — a send completes only
// once its receiver has reached the matching receive, the most blocking
// behaviour a transport may have — so a schedule that finishes here has
// no cycle of blocking waits under any buffering. Because each rank
// keeps at most one send and one receive in flight and retires steps in
// order, matching each link's pending send with its pending receive is
// per-link FIFO matching. A send ships what its range held when the
// rank ENTERED the step, which is runSteps' contract (the send is joined
// before the step's frame lands) and what lets a step ship a range it
// is receiving. A frame folded INTO the buffer extends the chain it
// carries with the receiver's (received ++ own, the order ringSteps
// documents); one folded UNDER it is the mirror image, own ++ received.
// run fails if a matched pair disagrees on the range (and so the frame
// length) — an in-place collective never moves an element to another
// index — or if the ranks stop making progress.
func (s *symbolic) run(gen func(rank int) []step) error {
	k := s.k
	steps := make([][]step, k)
	for r := range steps {
		steps[r] = gen(r)
	}
	// pre[r] is rank r's buffer as it was when r entered its step: a
	// copy if the step also receives, which is all that can change it.
	pre := make([][][]int, k)
	enter := func(r, pc int) {
		pre[r] = s.vals[r]
		if pc < len(steps[r]) && steps[r][pc].to >= 0 && steps[r][pc].from >= 0 {
			pre[r] = slices.Clone(pre[r])
		}
	}
	for r := range steps {
		enter(r, 0)
	}
	pc := make([]int, k)
	sent := make([]bool, k)
	rcvd := make([]bool, k)
	for {
		progress, running := false, false
		for a := 0; a < k; a++ {
			if pc[a] == len(steps[a]) {
				continue
			}
			running = true
			st := steps[a][pc[a]]
			if st.to == a || st.from == a || st.to >= k || st.from >= k {
				return fmt.Errorf("rank %d step %d: bad peers to=%d from=%d", a, pc[a], st.to, st.from)
			}
			if b := st.to; b >= 0 && !sent[a] && pc[b] < len(steps[b]) && !rcvd[b] && steps[b][pc[b]].from == a {
				rt := steps[b][pc[b]]
				if st.sLo != rt.rLo || st.sHi != rt.rHi {
					return fmt.Errorf("rank %d step %d ships [%d,%d), rank %d step %d expects [%d,%d)",
						a, pc[a], st.sLo, st.sHi, b, pc[b], rt.rLo, rt.rHi)
				}
				lo, hi, ok := s.atoms(st.sLo, st.sHi)
				uLo, uHi := hi, hi // no atom folds under, unless the receiver names some
				if rt.uLo < rt.uHi {
					var okU bool
					uLo, uHi, okU = s.atoms(rt.uLo, rt.uHi)
					ok = ok && okU && rt.fold && rt.rLo <= rt.uLo && rt.uHi <= rt.rHi
				}
				if !ok {
					return fmt.Errorf("rank %d step %d: [%d,%d) folding under [%d,%d) is off the boundaries newSymbolic was given, or not a sub-range of a fold",
						b, pc[b], rt.rLo, rt.rHi, rt.uLo, rt.uHi)
				}
				for i := lo; i < hi; i++ {
					in, own := pre[a][i], s.vals[b][i]
					switch {
					case rt.fold && uLo <= i && i < uHi:
						in = append(slices.Clone(own), in...)
					case rt.fold:
						in = append(slices.Clone(in), own...)
					}
					s.vals[b][i] = in
				}
				sent[a], rcvd[b], progress = true, true, true
			}
			if (st.to < 0 || sent[a]) && (st.from < 0 || rcvd[a]) {
				pc[a]++
				enter(a, pc[a])
				sent[a], rcvd[a], progress = false, false, true
			}
		}
		if !running {
			return nil
		}
		if !progress {
			return fmt.Errorf("blocked: ranks stopped at steps %v", pc)
		}
	}
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
// once in every atom, folded in the same order on all ranks.
func allReduced(k, n int, gen func(rank int) []step) error {
	s := newSymbolic(k, n, gen)
	if err := s.run(gen); err != nil {
		return err
	}
	for r := 0; r < k; r++ {
		for i, chain := range s.vals[r] {
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
// alone: sends meet receives of equal length in per-link FIFO order,
// nothing blocks forever, the ring reduce-scatter folds every chunk
// exactly once per rank along the documented chain and finishes it on
// its owner, the all-gather then leaves every chunk on every rank, the
// ring AllReduce list is those two passes back to back — except between
// two ranks up to ringPairMaxElems, where it is one exchange that leaves
// the same chain in every chunk on both — the binomial pair folds every
// rank exactly once and delivers the root's buffer verbatim, and the
// whole AllReduce lists — Tree, DoubleTree across its pipeline chunk
// edges, Hierarchical over every layout the numeric suites use, and at
// the exchange's size limit wherever two leaders meet — leave every
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
			if n <= 4099 {
				hierarchicalLayouts(t, k, n, false)
			}
		}
	}
}

// hierarchicalLayouts checks hierarchicalSteps over every layout the
// numeric suites use at world k — or, with twoLeaders, only those whose
// leader ring has two members, the ring that is one exchange.
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
		err := allReduced(k, n, func(r int) []step { return slices.Concat(hierarchicalSteps(r, n, topo)) })
		if err != nil {
			t.Fatalf("hierarchical %s k=%d n=%d: %v", name, k, n, err)
		}
	}
}

// truncatingMesh drops the last element of the first non-empty float
// frame it receives.
type truncatingMesh struct {
	transport.Mesh
	done atomic.Bool
}

func (m *truncatingMesh) Recv(from int, tag uint64) ([]float32, error) {
	buf, err := m.Mesh.Recv(from, tag)
	if err == nil && len(buf) > 0 && m.done.CompareAndSwap(false, true) {
		buf = buf[:len(buf)-1]
	}
	return buf, err
}

// TestShortFrameIsAnError: a frame shorter than the schedule fixed must
// fail the collective on the rank that received it, with the one error
// that names collective, rank, peer, step and lengths — never a short
// copy that leaves stale elements in a "bitwise-identical" result. Rank
// and peer are mesh ranks whatever subset of the ranks a level of the
// hierarchy runs over, and step counts through the whole list.
func TestShortFrameIsAnError(t *testing.T) {
	const victim, n = 1, 12
	sum := func(g ProcessGroup, data []float32) Work { return g.AllReduce(data, Sum) }
	cases := []struct {
		name string
		algo Algorithm
		// hosts lays the ranks out; nil is a world of three without a
		// topology.
		hosts      []string
		collective string
		peer, step int
		want       int
		run        func(g ProcessGroup, data []float32) Work
	}{
		{"AllReduce", Ring, nil, "ring allreduce", 0, 0, n / 3, sum},
		// Two ranks (Ring reads no layout): the one exchange step carries
		// the whole buffer.
		{"AllReducePair", Ring, []string{"a", "b"}, "ring allreduce", 0, 0, n, sum},
		{"ReduceScatterV", Ring, nil, "ring reduce-scatter", 0, 0, n / 3, func(g ProcessGroup, data []float32) Work {
			return g.(ShardedGroup).ReduceScatterV(data, Avg)
		}},
		{"AllGatherV", Ring, nil, "ring all-gather", 0, 0, n / 3, func(g ProcessGroup, data []float32) Work { return g.(ShardedGroup).AllGatherV(data) }},
		{"Broadcast", Ring, nil, "binomial broadcast", 0, 0, n, func(g ProcessGroup, data []float32) Work { return g.Broadcast(data, 0) }},
		// Rank 1 sends its buffer up, then takes the result from rank 0.
		{"Tree", Tree, nil, "tree allreduce", 0, 1, n, sum},
		// Rank 1 is the root of the first half's tree; rank 0 is its
		// left child.
		{"DoubleTree", DoubleTree, nil, "double-tree allreduce", 0, 0, n / 2, sum},
		// Rank 1 leads host b = {1, 2}: ranks 0 and 1 of that level.
		{"Hierarchical", Hierarchical, []string{"a", "b", "b"}, "hierarchical allreduce", 2, 0, n, sum},
		// Rank 1 is the other member of rank 0's host: one step up, and
		// the frame that comes back down is its second.
		{"Hierarchical3Level", Hierarchical, nLevelUnevenHosts, "hierarchical allreduce", 0, 1, n, sum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			world, opts := 3, Options{Algorithm: tc.algo}
			if tc.hosts != nil {
				world, opts.Topology = len(tc.hosts), NewTopology(tc.hosts)
			}
			meshes := transport.NewInProcMeshes(world)
			meshes[victim] = &truncatingMesh{Mesh: meshes[victim]}
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
			want := frameLenError{collective: tc.collective, rank: victim, peer: tc.peer, step: tc.step, got: tc.want - 1, want: tc.want}
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

// TestFanOutJoinsSendsOnRecvError: a fan-out collective whose receive
// fails must not report completion while its sends still run — they
// read the caller's buffer, which the caller owns again once Wait
// returns.
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
