package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// runCollective runs fn on every rank's group concurrently and fails the
// test on any error.
func runCollective(t *testing.T, groups []ProcessGroup, fn func(rank int, g ProcessGroup) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for r, g := range groups {
		wg.Add(1)
		go func(rank int, g ProcessGroup) {
			defer wg.Done()
			errs[rank] = fn(rank, g)
		}(r, g)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func closeAll(groups []ProcessGroup) {
	for _, g := range groups {
		g.Close()
	}
}

func TestAllReduceSumAllAlgorithmsAllWorlds(t *testing.T) {
	for _, algo := range []Algorithm{Ring, Tree, Naive} {
		for _, world := range []int{1, 2, 3, 4, 5, 8} {
			groups := NewInProcGroups(world, Options{Algorithm: algo})
			data := make([][]float32, world)
			// rank r contributes r+1 in every slot; sum = world*(world+1)/2.
			want := float32(world * (world + 1) / 2)
			runCollective(t, groups, func(rank int, g ProcessGroup) error {
				data[rank] = []float32{float32(rank + 1), float32(rank + 1), float32(rank + 1)}
				return g.AllReduce(data[rank], Sum).Wait()
			})
			for rank := 0; rank < world; rank++ {
				for i, v := range data[rank] {
					if v != want {
						t.Fatalf("%v world=%d rank=%d elem %d = %v, want %v", algo, world, rank, i, v, want)
					}
				}
			}
			closeAll(groups)
		}
	}
}

func TestAllReduceOpsSemantics(t *testing.T) {
	const world = 3
	cases := []struct {
		op   ReduceOp
		want float32
	}{
		{Sum, 1 + 2 + 3},
		{Prod, 1 * 2 * 3},
		{Min, 1},
		{Max, 3},
		{Avg, 2},
	}
	for _, tc := range cases {
		groups := NewInProcGroups(world, Options{Algorithm: Ring})
		results := make([]float32, world)
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			buf := []float32{float32(rank + 1)}
			if err := g.AllReduce(buf, tc.op).Wait(); err != nil {
				return err
			}
			results[rank] = buf[0]
			return nil
		})
		for rank, got := range results {
			if math.Abs(float64(got-tc.want)) > 1e-6 {
				t.Fatalf("op %v rank %d = %v, want %v", tc.op, rank, got, tc.want)
			}
		}
		closeAll(groups)
	}
}

func TestAllReduceBitwiseIdenticalAcrossRanks(t *testing.T) {
	// The DDP correctness guarantee requires replicas to see *exactly*
	// the same reduced gradients, not merely close ones.
	for _, algo := range []Algorithm{Ring, Tree, Naive} {
		const world, n = 4, 1031 // odd size exercises uneven ring chunks
		groups := NewInProcGroups(world, Options{Algorithm: algo})
		data := make([][]float32, world)
		rng := rand.New(rand.NewSource(7))
		for r := range data {
			data[r] = make([]float32, n)
			for i := range data[r] {
				data[r][i] = rng.Float32()*2 - 1
			}
		}
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			return g.AllReduce(data[rank], Avg).Wait()
		})
		for r := 1; r < world; r++ {
			for i := range data[0] {
				if data[r][i] != data[0][i] {
					t.Fatalf("%v: rank %d differs from rank 0 at %d: %v vs %v",
						algo, r, i, data[r][i], data[0][i])
				}
			}
		}
		closeAll(groups)
	}
}

func TestAllReduceMatchesLocalSumProperty(t *testing.T) {
	// Property: allreduce(sum) over random vectors equals the local sum
	// of all contributions, within float tolerance, for every algorithm.
	f := func(seed int64, worldSeed uint8, sizeSeed uint16) bool {
		world := int(worldSeed%6) + 1
		n := int(sizeSeed%257) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float32, world)
		expected := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32() - 0.5
				expected[i] += float64(inputs[r][i])
			}
		}
		for _, algo := range []Algorithm{Ring, Tree, Naive} {
			groups := NewInProcGroups(world, Options{Algorithm: algo})
			bufs := make([][]float32, world)
			var wg sync.WaitGroup
			ok := true
			var mu sync.Mutex
			for r := 0; r < world; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					bufs[rank] = append([]float32(nil), inputs[rank]...)
					if err := groups[rank].AllReduce(bufs[rank], Sum).Wait(); err != nil {
						mu.Lock()
						ok = false
						mu.Unlock()
					}
				}(r)
			}
			wg.Wait()
			closeAll(groups)
			if !ok {
				return false
			}
			for i := range expected {
				if math.Abs(float64(bufs[0][i])-expected[i]) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	const world = 5
	for root := 0; root < world; root++ {
		groups := NewInProcGroups(world, Options{})
		data := make([][]float32, world)
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			if rank == root {
				data[rank] = []float32{42, 43}
			} else {
				data[rank] = []float32{0, 0}
			}
			return g.Broadcast(data[rank], root).Wait()
		})
		for rank := 0; rank < world; rank++ {
			if data[rank][0] != 42 || data[rank][1] != 43 {
				t.Fatalf("root=%d rank=%d got %v", root, rank, data[rank])
			}
		}
		closeAll(groups)
	}
}

func TestBroadcastInvalidRoot(t *testing.T) {
	groups := NewInProcGroups(2, Options{})
	defer closeAll(groups)
	if err := groups[0].Broadcast([]float32{1}, 9).Wait(); err == nil {
		t.Fatal("expected error for out-of-range root")
	}
}

// TestUnknownReduceOpIsRefusedAtSubmission: an op outside the declared
// set never reaches the fold (whose default case panics on the group's
// worker, with the peers blocked) and is not waved through at world 1,
// where nothing folds. Every rank refuses it without reserving a tag, so
// the group still works afterwards. Through a codec the refusal is the
// one every op but Sum and Avg gets there.
func TestUnknownReduceOpIsRefusedAtSubmission(t *testing.T) {
	for _, world := range []int{1, 2} {
		groups := NewInProcGroups(world, Options{Algorithm: Ring})
		for _, op := range []ReduceOp{-1, Avg + 1} {
			submits := map[string]func(g ProcessGroup, data []float32) Work{
				"AllReduce":      func(g ProcessGroup, data []float32) Work { return g.AllReduce(data, op) },
				"ReduceScatterV": func(g ProcessGroup, data []float32) Work { return g.(ShardedGroup).ReduceScatterV(data, op) },
				"CompressedAllReduce": func(g ProcessGroup, data []float32) Work {
					return CompressedAllReduce(g, data, op, Float16Codec{}, nil)
				},
				"CompressedReduceScatterV": func(g ProcessGroup, data []float32) Work {
					return g.(ShardedGroup).CompressedReduceScatterV(data, op, Float16Codec{}, nil)
				},
			}
			for name, submit := range submits {
				for rank, g := range groups {
					data := []float32{1, 2, 3}
					err := submit(g, data).Wait()
					if compressed := strings.HasPrefix(name, "Compressed"); err == nil ||
						compressed != errors.Is(err, ErrCompressionUnsupported) ||
						!compressed && !strings.Contains(err.Error(), "unknown reduce op") {
						t.Fatalf("world %d rank %d %s op %v: err = %v, want the refusal", world, rank, name, op, err)
					}
					if data[0] != 1 || data[1] != 2 || data[2] != 3 {
						t.Fatalf("world %d rank %d %s op %v: refused collective changed data to %v", world, rank, name, op, data)
					}
				}
			}
		}
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			buf := []float32{float32(rank + 1)}
			if err := g.AllReduce(buf, Sum).Wait(); err != nil {
				return err
			}
			if want := float32(world * (world + 1) / 2); buf[0] != want {
				return fmt.Errorf("after the refusals the sum is %v, want %v", buf[0], want)
			}
			return nil
		})
		closeAll(groups)
	}
}

func TestAllGather(t *testing.T) {
	const world = 4
	groups := NewInProcGroups(world, Options{})
	defer closeAll(groups)
	results := make([][][]float32, world)
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		dst := make([][]float32, world)
		for i := range dst {
			dst[i] = make([]float32, 2)
		}
		src := []float32{float32(rank), float32(rank * 10)}
		if err := g.AllGather(dst, src).Wait(); err != nil {
			return err
		}
		results[rank] = dst
		return nil
	})
	for rank := 0; rank < world; rank++ {
		for peer := 0; peer < world; peer++ {
			if results[rank][peer][0] != float32(peer) || results[rank][peer][1] != float32(peer*10) {
				t.Fatalf("rank %d slot %d = %v", rank, peer, results[rank][peer])
			}
		}
	}
}

func TestBarrier(t *testing.T) {
	const world = 4
	groups := NewInProcGroups(world, Options{})
	defer closeAll(groups)
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		return g.Barrier().Wait()
	})
}

func TestAsyncOrderingPreserved(t *testing.T) {
	// Submit several allreduces without waiting; they must execute in
	// submission order on every rank (the ProcessGroup contract DDP's
	// bucket ordering relies on).
	const world, ops = 3, 8
	groups := NewInProcGroups(world, Options{})
	defer closeAll(groups)
	bufs := make([][][]float32, world)
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		works := make([]Work, ops)
		bufs[rank] = make([][]float32, ops)
		for i := 0; i < ops; i++ {
			bufs[rank][i] = []float32{float32(i)}
			works[i] = g.AllReduce(bufs[rank][i], Sum)
		}
		return WaitAll(works...)
	})
	for rank := 0; rank < world; rank++ {
		for i := 0; i < ops; i++ {
			if bufs[rank][i][0] != float32(i*world) {
				t.Fatalf("rank %d op %d = %v, want %v", rank, i, bufs[rank][i][0], i*world)
			}
		}
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	groups := NewInProcGroups(2, Options{})
	groups[0].Close()
	groups[1].Close()
	if err := groups[0].AllReduce([]float32{1}, Sum).Wait(); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestWorldOfOneIsLocal(t *testing.T) {
	groups := NewInProcGroups(1, Options{Algorithm: Ring})
	defer closeAll(groups)
	buf := []float32{5}
	if err := groups[0].AllReduce(buf, Avg).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatalf("singleton avg changed data: %v", buf[0])
	}
}

func TestRoundRobinDispatchAndCorrectness(t *testing.T) {
	const world, nGroups = 3, 3
	subGroups := make([][]ProcessGroup, nGroups)
	for i := range subGroups {
		subGroups[i] = NewInProcGroups(world, Options{})
	}
	rrs := make([]ProcessGroup, world)
	for r := 0; r < world; r++ {
		gs := make([]ProcessGroup, nGroups)
		for i := range gs {
			gs[i] = subGroups[i][r]
		}
		rr, err := NewRoundRobin(gs...)
		if err != nil {
			t.Fatal(err)
		}
		rrs[r] = rr
	}
	defer closeAll(rrs)

	// 7 collectives rotate over 3 sub-groups; results must still be
	// correct and identical on all ranks.
	bufs := make([][][]float32, world)
	runCollective(t, rrs, func(rank int, g ProcessGroup) error {
		works := make([]Work, 7)
		bufs[rank] = make([][]float32, 7)
		for i := range works {
			bufs[rank][i] = []float32{float32(rank + i)}
			works[i] = g.AllReduce(bufs[rank][i], Sum)
		}
		return WaitAll(works...)
	})
	for i := 0; i < 7; i++ {
		want := float32(0+i) + float32(1+i) + float32(2+i)
		for rank := 0; rank < world; rank++ {
			if bufs[rank][i][0] != want {
				t.Fatalf("rr op %d rank %d = %v, want %v", i, rank, bufs[rank][i][0], want)
			}
		}
	}
}

func TestRoundRobinRejectsMismatchedGroups(t *testing.T) {
	a := NewInProcGroups(2, Options{})
	b := NewInProcGroups(3, Options{})
	defer closeAll(a)
	defer closeAll(b)
	if _, err := NewRoundRobin(a[0], b[0]); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := NewRoundRobin(); err == nil {
		t.Fatal("expected empty group list error")
	}
}

func TestReduceOpString(t *testing.T) {
	if Sum.String() != "sum" || Avg.String() != "avg" || Ring.String() != "ring" {
		t.Fatal("string names wrong")
	}
}

// TestParseAlgorithmRoundTrip: ParseAlgorithm inverts String over the
// whole enum, and rejects what String would never print.
func TestParseAlgorithmRoundTrip(t *testing.T) {
	for a := Ring; a <= Auto; a++ { // Auto is the enum's last value
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a || a.String() == "" {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	for _, bad := range []string{"", "Ring", (Auto + 1).String()} {
		if a, err := ParseAlgorithm(bad); err == nil {
			t.Fatalf("ParseAlgorithm(%q) = %v, want an error", bad, a)
		}
	}
}
