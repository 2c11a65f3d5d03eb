package comm

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/transport"
)

// This file implements the double-binary-tree AllReduce of NCCL 2.4
// (Sanders/Speck/Träff's two-tree broadcast applied to reduction).
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
// The transports demand one more invariant: a mesh link is a strict
// FIFO and Recv matches the NEXT frame's tag — there is no
// demultiplexing, a mismatched frame is an error. The two trees run
// concurrently (two goroutines per rank, one tag each) and may share a
// directed link, so frame order on every shared link must be identical
// on both ends. doubleTreeAllReduce guarantees it with per-link gates:
// T1 never waits for T2, and T2 touches a link only after T1's
// statically-known last use of it, so every shared link carries all
// T1 frames, then all T2 frames, on both the send and receive side.

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

// inner reports whether the rank forwards data in this tree.
func (r treeRel) inner() bool { return len(r.children) > 0 }

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
// subtree first; both the reduce fold order and the broadcast send
// order follow that fixed order, keeping results bitwise-deterministic.
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

// treeGates serializes the two trees' use of shared directed links.
// The leading tree (T1) closes send[p] once it will never again send
// to p and recv[p] once it will never again receive from p; the
// following tree (T2) waits on the matching gate before each Send/Recv
// involving p. Closing is idempotent and single-goroutine (only the
// leader closes), waiting is cheap once closed.
type treeGates struct {
	send, recv             []chan struct{}
	sendClosed, recvClosed []bool
}

func newTreeGates(k int) *treeGates {
	g := &treeGates{
		send:       make([]chan struct{}, k),
		recv:       make([]chan struct{}, k),
		sendClosed: make([]bool, k),
		recvClosed: make([]bool, k),
	}
	for i := range g.send {
		g.send[i] = make(chan struct{})
		g.recv[i] = make(chan struct{})
	}
	return g
}

func (g *treeGates) doneSend(p int) {
	if !g.sendClosed[p] {
		g.sendClosed[p] = true
		close(g.send[p])
	}
}

func (g *treeGates) doneRecv(p int) {
	if !g.recvClosed[p] {
		g.recvClosed[p] = true
		close(g.recv[p])
	}
}

// releaseUnused opens every gate the leading tree will never need —
// called before any I/O so the following tree only serializes behind
// links the trees actually share.
func (g *treeGates) releaseUnused(rel treeRel) {
	used := func(p int) bool {
		if p == rel.parent {
			return true
		}
		for _, c := range rel.children {
			if c == p {
				return true
			}
		}
		return false
	}
	for p := range g.send {
		if !used(p) {
			g.doneSend(p)
			g.doneRecv(p)
		}
	}
}

// releaseAll opens every remaining gate — the leading tree's exit path
// (deferred), so an error can never leave the follower waiting forever.
func (g *treeGates) releaseAll() {
	for p := range g.send {
		g.doneSend(p)
		g.doneRecv(p)
	}
}

// treeHalfAllReduce reduces data up rel's tree and broadcasts the
// result back down, pipelined chunk by chunk. When lead is true it
// closes gates as it finishes with each link; otherwise it waits on
// them before touching a link.
func treeHalfAllReduce(m transport.Mesh, tag uint64, data []float32, op ReduceOp, rel treeRel, gates *treeGates, lead bool) error {
	n := len(data)
	chunks := (n + doubleTreeChunkElems - 1) / doubleTreeChunkElems

	waitSend := func(p int) {
		if !lead {
			<-gates.send[p]
		}
	}
	waitRecv := func(p int) {
		if !lead {
			<-gates.recv[p]
		}
	}
	sendDone := func(p int) {
		if lead {
			gates.doneSend(p)
		}
	}
	recvDone := func(p int) {
		if lead {
			gates.doneRecv(p)
		}
	}

	// Reduce up: per chunk, fold the children's contributions (left
	// then right — fixed order for determinism), forward to the parent.
	for c := 0; c < chunks; c++ {
		lo := c * doubleTreeChunkElems
		hi := min(lo+doubleTreeChunkElems, n)
		for _, ch := range rel.children {
			waitRecv(ch)
			buf, err := m.Recv(ch, tag)
			if err != nil {
				return err
			}
			if len(buf) != hi-lo {
				return fmt.Errorf("comm: double-tree chunk size mismatch from rank %d: got %d want %d", ch, len(buf), hi-lo)
			}
			reduceInto(data[lo:hi], buf, op)
			transport.PutFloats(buf)
		}
		if rel.parent >= 0 {
			waitSend(rel.parent)
			if err := m.Send(rel.parent, tag, data[lo:hi]); err != nil {
				return err
			}
		}
	}
	for _, ch := range rel.children {
		recvDone(ch)
	}
	if rel.parent >= 0 {
		sendDone(rel.parent)
	}

	// Broadcast down: per chunk, receive the finished bytes from the
	// parent and forward them verbatim — every rank ends bitwise equal.
	for c := 0; c < chunks; c++ {
		lo := c * doubleTreeChunkElems
		hi := min(lo+doubleTreeChunkElems, n)
		if rel.parent >= 0 {
			waitRecv(rel.parent)
			buf, err := m.Recv(rel.parent, tag)
			if err != nil {
				return err
			}
			if len(buf) != hi-lo {
				return fmt.Errorf("comm: double-tree broadcast size mismatch: got %d want %d", len(buf), hi-lo)
			}
			copy(data[lo:hi], buf)
			transport.PutFloats(buf)
		}
		for _, ch := range rel.children {
			waitSend(ch)
			if err := m.Send(ch, tag, data[lo:hi]); err != nil {
				return err
			}
		}
	}
	if rel.parent >= 0 {
		recvDone(rel.parent)
	}
	for _, ch := range rel.children {
		sendDone(ch)
	}
	return nil
}

// doubleTreeAllReduce is the double-binary-tree AllReduce: tree T1
// reduces and broadcasts data's first half under tag1 while T2 handles
// the second half under tag2, concurrently. The caller must have
// reserved BOTH tags (see meshGroup.submitN). Every rank finishes with
// bitwise-identical data: each half is fully reduced at its tree's
// root and propagated verbatim.
//
// Deadlock-freedom: T1 never waits on a gate, and a lone tree's
// pipelined schedule only blocks on peers that are guaranteed to
// progress (children's sends precede the parent's receive in chunk
// order on strict-FIFO links). T2 additionally waits on gates, all of
// which T1 closes in bounded time — on success as it retires links, on
// failure via the deferred releaseAll.
func doubleTreeAllReduce(m transport.Mesh, tag1, tag2 uint64, data []float32, op ReduceOp) error {
	k := m.Size()
	if k == 1 {
		return nil
	}
	// Avg folds as Sum; each rank applies the final 1/world scale to
	// its bitwise-identical copy.
	foldOp := op
	if op == Avg {
		foldOp = Sum
	}
	t1, t2 := doubleTreeRels(k)
	rank := m.Rank()
	mid := len(data) / 2

	gates := newTreeGates(k)
	var wg sync.WaitGroup
	var err1 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer gates.releaseAll()
		gates.releaseUnused(t1[rank])
		err1 = treeHalfAllReduce(m, tag1, data[:mid], foldOp, t1[rank], gates, true)
	}()
	err2 := treeHalfAllReduce(m, tag2, data[mid:], foldOp, t2[rank], gates, false)
	wg.Wait()
	if err1 != nil {
		return err1
	}
	if err2 != nil {
		return err2
	}

	finishAvg(data, op, k)
	return nil
}
