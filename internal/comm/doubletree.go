package comm

import (
	"math/bits"
	"slices"
)

// This file generates the double-binary-tree AllReduce of NCCL 2.4
// (Sanders/Speck/Träff's two-tree broadcast applied to reduction) as a
// step list for runSteps.
//
// A single reduce-then-broadcast tree has log(k) depth — far better
// than Ring's 2(k-1) serialized steps for small payloads — but wastes
// half the aggregate bandwidth: the leaves (half the ranks) never
// forward anything. The fix is two complementary trees, T1 and T2,
// each carrying one half of the payload, constructed so that every
// rank is an inner node in AT MOST one tree. Each rank therefore does
// inner-node work (receive two children, fold, forward) for one half
// of the buffer at most, and leaf work for the other: full-bandwidth
// log-depth AllReduce.
//
// Construction (ranks are 0-indexed; values v = rank+1 are 1-indexed):
// T1 is the in-order binary tree over values 1..k — the root is the
// value with the most trailing zero bits, its subtrees are the in-order
// trees over the values below and above it. Odd values are leaves,
// even values are inner nodes. T2 is the SAME tree with every rank
// shifted down by one (rank r plays value ((r+1) mod k)+1), which
// flips value parity for every rank: T1's leaves are T2's inner nodes
// and vice versa. (For odd k a perfect pairing is impossible — the
// trees have 2*floor(k/2) < k inner slots — and the shift leaves
// exactly one rank, k-1, a leaf in both trees.)
//
// Each tree pipelines its half in doubleTreeChunkElems-element chunks:
// reduce up (receive children's chunk c, fold, forward to parent),
// then broadcast down. Total critical path is O(log k + chunks) hops
// instead of the unpipelined tree's O(log k * chunks).
//
// Both trees run in ONE list per rank, which is Sanders/Speck/Träff's
// two-tree schedule: colour the child→parent edges of both trees with
// two colours so that no rank sends on two edges of one colour, nor
// receives on two. That is possible because the graph "rank as sender —
// rank as receiver" has degree at most 2 (a rank has one parent per
// tree, and children in one tree only), so it is a union of paths and
// even cycles, and colours alternate along them. Colour-0 edges fire in
// even rounds, colour-1 edges in odd ones, so a rank sends at most one
// frame and receives at most one per round — exactly a step. Chunk c
// crosses an edge 2c rounds after chunk 0; an edge's chunk-0 round
// follows those of the edges into its sender (the right child's after
// the left's, which keeps every element the chain
//
//	S(v) = (x[v] + S(left child)) + S(right child)
//
// evaluated once, at its tree's root); and the broadcast retraces the
// same edges downward, in the same colours, in rounds after the last
// reduce round. A rank's list is its events ordered by round. Every
// directed link carries at most one frame per round, on both ends in
// round order, so one tag serves the whole collective, and no step
// waits on a later round, so the schedule cannot block.

// doubleTreeChunkElems is the pipeline chunk size (elements) of each
// tree half: 8Ki elements = 32KiB frames, small enough to pipeline
// medium payloads through the tree depth, large enough to amortize
// per-frame overhead.
const doubleTreeChunkElems = 8 << 10

// treeRel is one rank's neighbourhood in one tree: its parent (-1 for
// the root) and children (left then right), all as mesh ranks.
type treeRel struct {
	parent   int
	children []int
}

// rangeRootValue returns the value in [lo, hi] (1-indexed, lo <= hi)
// with the most trailing zero bits — the in-order subtree root. It is
// unique: between two multiples of 2^b lies a multiple of 2^(b+1).
func rangeRootValue(lo, hi int) int {
	for b := bits.Len(uint(hi)); b >= 0; b-- {
		step := 1 << b
		if m := (lo + step - 1) &^ (step - 1); m <= hi {
			return m
		}
	}
	return lo // unreachable: b=0 always yields lo
}

// buildInOrderTree returns every rank's treeRel in the in-order binary
// tree over ranks 0..k-1 (values 1..k). Children are listed left
// subtree first; the reduce fold order follows that fixed order,
// keeping results bitwise-deterministic.
func buildInOrderTree(k int) []treeRel {
	rel := make([]treeRel, k)
	for i := range rel {
		rel[i].parent = -1
	}
	var build func(lo, hi, parent int)
	build = func(lo, hi, parent int) {
		if lo > hi {
			return
		}
		root := rangeRootValue(lo, hi)
		if parent > 0 {
			rel[root-1].parent = parent - 1
			rel[parent-1].children = append(rel[parent-1].children, root-1)
		}
		build(lo, root-1, root)
		build(root+1, hi, root)
	}
	build(1, k, 0)
	return rel
}

// doubleTreeRels returns the two complementary trees over k ranks: t1
// is the in-order tree on values rank+1, t2 the same tree with ranks
// cyclically shifted down by one, so no rank is an inner node in both.
func doubleTreeRels(k int) (t1, t2 []treeRel) {
	t1 = buildInOrderTree(k)
	t2 = make([]treeRel, k)
	// Value-space rank s plays as mesh rank (s+k-1) mod k in t2.
	shift := func(s int) int { return (s + k - 1) % k }
	for s := range t1 {
		r := shift(s)
		t2[r].parent = -1
		if t1[s].parent >= 0 {
			t2[r].parent = shift(t1[s].parent)
		}
		for _, c := range t1[s].children {
			t2[r].children = append(t2[r].children, shift(c))
		}
	}
	return t1, t2
}

// colourTreeEdges 2-colours the child→parent edges of both trees:
// colour[t][v] is the colour of v's edge to its parent in trees[t], and
// the two edges out of a rank differ, as do the two into it. Vertex v
// is rank v as sender, vertex k+p rank p as receiver, and edge 2v+t
// joins v to k+parent. Paths are walked from an end, then what is left
// uncoloured is cycles, walked from anywhere; both alternate from
// colour 0, and a cycle closes correctly because it is even.
func colourTreeEdges(trees [2][]treeRel) (colour [2][]int) {
	k := len(trees[0])
	at := make([][]int, 2*k) // the edges at each vertex, at most two
	room := make([]int, 4*k)
	for x := range at {
		at[x] = room[2*x : 2*x : 2*x+2]
	}
	for t, tree := range trees {
		colour[t] = make([]int, k)
		for v, rel := range tree {
			colour[t][v] = -1
			if rel.parent >= 0 {
				at[v] = append(at[v], 2*v+t)
				at[k+rel.parent] = append(at[k+rel.parent], 2*v+t)
			}
		}
	}
	walk := func(x int) {
		for c := 0; ; c ^= 1 {
			i := slices.IndexFunc(at[x], func(e int) bool { return colour[e%2][e/2] < 0 })
			if i < 0 {
				return
			}
			v, t := at[x][i]/2, at[x][i]%2
			colour[t][v] = c
			if x == v {
				x = k + trees[t][v].parent
			} else {
				x = v
			}
		}
	}
	for x := range at {
		if len(at[x]) == 1 {
			walk(x)
		}
	}
	for x := range at {
		walk(x)
	}
	return colour
}

// doubleTreeSteps is rank's step list of the double-tree AllReduce over
// n elements: trees[0] reduces and broadcasts data[:n/2], trees[1]
// data[n/2:], both in the rounds the header describes.
func doubleTreeSteps(rank, k, n int) []step {
	if k == 1 || n == 0 {
		return nil
	}
	var trees [2][]treeRel
	trees[0], trees[1] = doubleTreeRels(k)
	colour := colourTreeEdges(trees)
	// after returns the first round later than round in which an edge
	// of colour c fires.
	after := func(round, c int) int { return round + 1 + (round+1+c)&1 }
	half := [2][2]int{{0, n / 2}, {n / 2, n}}
	chunks := func(t int) int { return (half[t][1] - half[t][0] + doubleTreeChunkElems - 1) / doubleTreeChunkElems }

	// up[t][v] is the round in which v ships chunk 0 to its parent in
	// tree t, down[t][v] the one in which it gets the result back.
	var up, down [2][]int
	var root [2]int
	lastUp := 0
	for t, tree := range trees {
		up[t], down[t] = make([]int, k), make([]int, k)
		root[t] = slices.IndexFunc(tree, func(r treeRel) bool { return r.parent < 0 })
		// rise numbers the edges below v and returns the round of the
		// last one into v (-1 for a leaf): a child ships once its own
		// children and its left sibling have.
		var rise func(v int) int
		rise = func(v int) int {
			ready := -1
			for _, c := range tree[v].children {
				ready = after(max(rise(c), ready), colour[t][c])
				up[t][c] = ready
			}
			return ready
		}
		lastUp = max(lastUp, rise(root[t])+2*(chunks(t)-1))
	}
	for t, tree := range trees {
		// fall numbers the same edges downward from v, which holds the
		// result's chunk 0 by the given round.
		var fall func(v, round int)
		fall = func(v, round int) {
			for _, c := range tree[v].children {
				down[t][c] = after(round, colour[t][c])
				fall(c, down[t][c])
			}
		}
		fall(root[t], lastUp)
	}

	// This rank's events: one half-filled step each, keyed by round. It
	// has at most six per chunk where it is inner and two where it is a
	// leaf, and the second half has no fewer chunks than the first.
	type event struct {
		round int
		step
	}
	events := make([]event, 0, 8*chunks(1))
	send := func(round, to, lo, hi int) {
		events = append(events, event{round, step{to: to, from: -1, sLo: lo, sHi: hi}})
	}
	recv := func(round, from, lo, hi int, fold bool) {
		events = append(events, event{round, step{to: -1, from: from, rLo: lo, rHi: hi, fold: fold}})
	}
	for t, tree := range trees {
		rel := tree[rank]
		for c := 0; c < chunks(t); c++ {
			lo := half[t][0] + c*doubleTreeChunkElems
			hi := min(lo+doubleTreeChunkElems, half[t][1])
			for _, ch := range rel.children {
				recv(up[t][ch]+2*c, ch, lo, hi, true)
				send(down[t][ch]+2*c, ch, lo, hi)
			}
			if rel.parent >= 0 {
				send(up[t][rank]+2*c, rel.parent, lo, hi)
				recv(down[t][rank]+2*c, rel.parent, lo, hi, false)
			}
		}
	}
	slices.SortFunc(events, func(a, b event) int { return a.round - b.round })

	// A round holds at most one send and one receive: they are one step.
	steps := make([]step, 0, len(events))
	for i, ev := range events {
		if i == 0 || ev.round != events[i-1].round {
			steps = append(steps, ev.step)
		} else if st := &steps[len(steps)-1]; ev.to >= 0 {
			st.to, st.sLo, st.sHi = ev.to, ev.sLo, ev.sHi
		} else {
			st.from, st.rLo, st.rHi, st.fold = ev.from, ev.rLo, ev.rHi, ev.fold
		}
	}
	return steps
}
