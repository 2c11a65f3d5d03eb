package comm

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func asSharded(t *testing.T, groups []ProcessGroup) []ShardedGroup {
	t.Helper()
	out := make([]ShardedGroup, len(groups))
	for i, g := range groups {
		sg, ok := g.(ShardedGroup)
		if !ok {
			t.Fatalf("group %d does not implement ShardedGroup", i)
		}
		out[i] = sg
	}
	return out
}

// shardedInput is a deterministic per-rank vector with an uneven tail
// (n deliberately not divisible by most world sizes).
func shardedInput(rank, n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(rank+1)*0.5 + float32(i)*0.25
	}
	return data
}

// inexactInput is a deterministic per-rank vector whose sums round:
// magnitudes spread over several binades, so two fold orders of the
// same contributions differ in the low bits and an agreement check
// below cannot pass by accident.
func inexactInput(rank, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000*n + rank)))
	data := make([]float32, n)
	for i := range data {
		data[i] = (rng.Float32()*2 - 1) * float32(int(1)<<rng.Intn(12))
	}
	return data
}

// ringReference is the sequential statement of the ring fold: element i
// of chunk c is ((x[c+1] + x[c+2]) + ...) + x[c], ranks mod world, then
// scaled once for Avg.
func ringReference(inputs [][]float32, op ReduceOp) []float32 {
	world, n := len(inputs), len(inputs[0])
	out := make([]float32, n)
	for c := 0; c < world; c++ {
		lo, hi := ChunkBounds(n, world, c)
		for i := lo; i < hi; i++ {
			acc := inputs[(c+1)%world][i]
			for j := 2; j <= world; j++ {
				acc += inputs[(c+j)%world][i]
			}
			if op == Avg {
				acc *= 1 / float32(world)
			}
			out[i] = acc
		}
	}
	return out
}

// doubleTreeReference is the sequential statement of the double-tree
// fold: the first half of the buffer is folded over the in-order binary
// tree on values 1..world (the root of a range is its value with the
// most trailing zero bits; rank v-1 plays value v), the second half over
// the same tree with every rank shifted down one, and a node's value is
// (x[v] + S(left subtree)) + S(right subtree); scaled once for Avg.
func doubleTreeReference(inputs [][]float32, op ReduceOp) []float32 {
	world, n := len(inputs), len(inputs[0])
	out := make([]float32, n)
	for tree, half := range [2][2]int{{0, n / 2}, {n / 2, n}} {
		var fold func(lo, hi int) []float32
		fold = func(lo, hi int) []float32 {
			if lo > hi {
				return nil
			}
			root := lo
			for v := lo; v <= hi; v++ {
				if bits.TrailingZeros(uint(v)) > bits.TrailingZeros(uint(root)) {
					root = v
				}
			}
			acc := slices.Clone(inputs[(root-1+tree*(world-1))%world][half[0]:half[1]])
			for _, sub := range [][]float32{fold(lo, root-1), fold(root+1, hi)} {
				for i := range sub {
					acc[i] += sub[i]
				}
			}
			return acc
		}
		copy(out[half[0]:], fold(1, world))
	}
	if op == Avg {
		for i := range out {
			out[i] *= 1 / float32(world)
		}
	}
	return out
}

// hierarchicalReference is the sequential statement of the hierarchical
// fold: level by level from the hosts outward, each group's participants
// fold onto its leader along the binomial tree — member v of a level is
// ((x[v] + S(v+1)) + S(v+2)) + S(v+4) ... over every power of two below
// v's lowest set bit — then the outermost leaders' partials take the
// ring chain, and the result is scaled once for Avg.
func hierarchicalReference(inputs [][]float32, op ReduceOp, topo *Topology) []float32 {
	out := ringReference(leaderPartials(inputs, topo), Sum)
	if op == Avg {
		for i := range out {
			out[i] *= 1 / float32(len(inputs))
		}
	}
	return out
}

// leaderPartials is the part of the hierarchical fold below the leader
// ring: what each outermost leader, in rank order, holds once every
// level has folded onto its leader along the binomial tree.
func leaderPartials(inputs [][]float32, topo *Topology) [][]float32 {
	part := make([][]float32, len(inputs))
	for r := range part {
		part[r] = slices.Clone(inputs[r])
	}
	var binomial func(ranks []int, v int) []float32
	binomial = func(ranks []int, v int) []float32 {
		acc := part[ranks[v]]
		for mask := 1; v+mask < len(ranks) && (v == 0 || mask < v&-v); mask <<= 1 {
			for i, x := range binomial(ranks, v+mask) {
				acc[i] += x
			}
		}
		return acc
	}
	for l := topo.Levels() - 1; l >= 0; l-- {
		for _, leader := range topo.levelLeaders(l) {
			binomial(topo.phaseParticipants(l, leader), 0)
		}
	}
	var tops [][]float32
	for _, leader := range topo.levelLeaders(0) {
		tops = append(tops, part[leader])
	}
	return tops
}

// TestReduceScatterVBitwiseMatchesAllReduce is the contract fsdp's
// bitwise guarantee rests on, as one agreement table: for every world
// size, transport, buffer size around the chunking edge cases (uneven
// tails, empty chunks, empty buffers, several double-tree pipeline
// chunks) and Sum/Avg, three statements of the ring reduction agree
// bitwise — AllReduce(Ring) on every rank, ReduceScatterV's owned chunk
// and the buffer AllGatherV rebuilds from it, and the sequential fold
// along the documented chain. The same table holds the other documented
// chains to their sequential folds: AllReduce(DoubleTree), and AllReduce
// under Hierarchical on every layout of the world that has a hierarchy.
func TestReduceScatterVBitwiseMatchesAllReduce(t *testing.T) {
	type row struct {
		tcp   bool
		world int
	}
	var rows []row
	for world := 1; world <= 17; world++ {
		rows = append(rows, row{false, world})
	}
	for _, world := range []int{2, 3, 5} {
		rows = append(rows, row{true, world})
	}
	for _, rw := range rows {
		world := rw.world
		groupsWith := func(opts Options) []ProcessGroup {
			if rw.tcp {
				return groupsOver(tcpTestMeshes(t, world), opts)
			}
			return NewInProcGroups(world, opts)
		}
		groups := asSharded(t, groupsWith(Options{Algorithm: Ring}))
		trees := groupsWith(Options{Algorithm: DoubleTree})
		type hier struct {
			name   string
			topo   *Topology
			groups []ProcessGroup
		}
		var hiers []hier
		layouts := hostLayouts(world)
		for _, name := range slices.Sorted(maps.Keys(layouts)) {
			if topo := NewTopology(layouts[name]); topo.Hierarchical() {
				hiers = append(hiers, hier{name, topo, groupsWith(Options{Algorithm: Hierarchical, Topology: topo})})
			}
		}
		for _, n := range []int{0, 1, world - 1, world, world + 1, 103, 4099, 96 * world, 2*doubleTreeChunkElems + 3} {
			for _, op := range []ReduceOp{Sum, Avg} {
				inputs := make([][]float32, world)
				for r := range inputs {
					inputs[r] = inexactInput(r, n)
				}
				want := ringReference(inputs, op)
				wantTrees := doubleTreeReference(inputs, op)
				wantHier := make([][]float32, len(hiers))
				for i, h := range hiers {
					wantHier[i] = hierarchicalReference(inputs, op, h.topo)
				}
				var wg sync.WaitGroup
				errs := make([]error, world)
				for r := 0; r < world; r++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						errs[rank] = func() error {
							lo, hi := ChunkBounds(n, world, rank)
							agree := func(what string, got, want []float32) error {
								for i := range want {
									if got[i] != want[i] {
										return fmt.Errorf("%s elem %d = %v, want %v", what, i, got[i], want[i])
									}
								}
								return nil
							}
							g := groups[rank]
							a := slices.Clone(inputs[rank])
							if err := g.AllReduce(a, op).Wait(); err != nil {
								return err
							}
							if err := agree("allreduce vs sequential chain", a, want); err != nil {
								return err
							}
							b := slices.Clone(inputs[rank])
							if err := g.ReduceScatterV(b, op).Wait(); err != nil {
								return err
							}
							if err := agree("reduce-scatter-v owned chunk", b[lo:hi], want[lo:hi]); err != nil {
								return err
							}
							if err := g.AllGatherV(b).Wait(); err != nil {
								return err
							}
							if err := agree("reduce-scatter-v + all-gather-v", b, want); err != nil {
								return err
							}
							c := slices.Clone(inputs[rank])
							if err := trees[rank].AllReduce(c, op).Wait(); err != nil {
								return err
							}
							if err := agree("double-tree allreduce vs sequential tree fold", c, wantTrees); err != nil {
								return err
							}
							for i, h := range hiers {
								d := slices.Clone(inputs[rank])
								if err := h.groups[rank].AllReduce(d, op).Wait(); err != nil {
									return err
								}
								if err := agree("hierarchical allreduce ("+h.name+") vs sequential level fold", d, wantHier[i]); err != nil {
									return err
								}
							}
							return nil
						}()
					}(r)
				}
				wg.Wait()
				for rank, err := range errs {
					if err != nil {
						t.Fatalf("tcp=%v world %d n %d op %v rank %d: %v", rw.tcp, world, n, op, rank, err)
					}
				}
			}
		}
		for rank := range groups {
			groups[rank].Close()
			trees[rank].Close()
			for _, h := range hiers {
				h.groups[rank].Close()
			}
		}
	}
}

// TestAllGatherVDistributesOwnedChunks: after AllGatherV every rank
// holds every owner's chunk verbatim.
func TestAllGatherVDistributesOwnedChunks(t *testing.T) {
	const n = 29
	for _, world := range []int{1, 2, 3, 5, 8} {
		groups := asSharded(t, NewInProcGroups(world, Options{}))
		outs := make([][]float32, world)
		var wg sync.WaitGroup
		errs := make([]error, world)
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				data := make([]float32, n)
				lo, hi := ChunkBounds(n, world, rank)
				for i := lo; i < hi; i++ {
					data[i] = float32(1000*rank + i)
				}
				errs[rank] = groups[rank].AllGatherV(data).Wait()
				outs[rank] = data
			}(r)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("world %d rank %d: %v", world, rank, err)
			}
			for owner := 0; owner < world; owner++ {
				lo, hi := ChunkBounds(n, world, owner)
				for i := lo; i < hi; i++ {
					if want := float32(1000*owner + i); outs[rank][i] != want {
						t.Fatalf("world %d rank %d elem %d = %v, want %v", world, rank, i, outs[rank][i], want)
					}
				}
			}
		}
		for _, g := range groups {
			g.Close()
		}
	}
}

// TestReduceScatterVThenAllGatherVEqualsAllReduce composes the two
// halves back into a full AllReduce, bitwise, on every rank.
func TestReduceScatterVThenAllGatherVEqualsAllReduce(t *testing.T) {
	const n = 67
	const world = 6
	groups := asSharded(t, NewInProcGroups(world, Options{Algorithm: Ring}))
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	var wg sync.WaitGroup
	fails := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			a := shardedInput(rank, n)
			b := append([]float32(nil), a...)
			if err := groups[rank].AllReduce(a, Avg).Wait(); err != nil {
				fails[rank] = err
				return
			}
			if err := groups[rank].ReduceScatterV(b, Avg).Wait(); err != nil {
				fails[rank] = err
				return
			}
			if err := groups[rank].AllGatherV(b).Wait(); err != nil {
				fails[rank] = err
				return
			}
			for i := range a {
				if a[i] != b[i] {
					fails[rank] = fmt.Errorf("elem %d: composed %v != allreduce %v", i, b[i], a[i])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for rank, err := range fails {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestCompressedReduceScatterVRankOrderFold checks the compressed
// sharded reduce-scatter against a locally computed oracle: each
// contribution quantized through the codec once, folded in rank order,
// exactly — and the sender-side residuals hold the quantization error
// of this rank's own contribution.
func TestCompressedReduceScatterVRankOrderFold(t *testing.T) {
	const n = 37
	const world = 3
	codec := Float16Codec{}
	groups := asSharded(t, NewInProcGroups(world, Options{}))
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	inputs := make([][]float32, world)
	for r := range inputs {
		inputs[r] = shardedInput(r, n)
	}
	// Oracle: decode(encode(chunk)) per contribution, folded in rank
	// order, scaled by 1/world (Avg).
	want := make([]float32, n)
	for r := 0; r < world; r++ {
		rt := make([]float32, n)
		copy(rt, inputs[r])
		codec.Encode(nil, rt, nil, rt)
		for i := range want {
			if r == 0 {
				want[i] = rt[i]
			} else {
				want[i] += rt[i]
			}
		}
	}
	for i := range want {
		want[i] /= world
	}

	outs := make([][]float32, world)
	res := make([][]float32, world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			data := append([]float32(nil), inputs[rank]...)
			residual := make([]float32, n)
			errs[rank] = groups[rank].CompressedReduceScatterV(data, Avg, codec, residual).Wait()
			outs[rank], res[rank] = data, residual
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		lo, hi := ChunkBounds(n, world, rank)
		for i := lo; i < hi; i++ {
			if outs[rank][i] != want[i] {
				t.Fatalf("rank %d elem %d = %v, want %v", rank, i, outs[rank][i], want[i])
			}
		}
		// Error feedback: residual = original - decode(encode(original)).
		rt := append([]float32(nil), inputs[rank]...)
		codec.Encode(nil, rt, nil, rt)
		for i := range rt {
			if want := inputs[rank][i] - rt[i]; res[rank][i] != want {
				t.Fatalf("rank %d residual %d = %v, want %v", rank, i, res[rank][i], want)
			}
		}
	}
}
