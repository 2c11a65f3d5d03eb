package comm

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/buffer"
	"repro/internal/transport"
)

// Algorithm selects the AllReduce implementation, standing in for the
// algorithm choices inside NCCL/Gloo that the paper discusses
// (ring-based vs tree-based AllReduce, Section 2.3).
type Algorithm int

// Supported AllReduce algorithms.
const (
	// Ring uses reduce-scatter followed by all-gather around a ring:
	// bandwidth-optimal for large tensors, 2(k-1) latency terms — one,
	// between two ranks, up to ringPairMaxElems (ringAllReduceSteps).
	Ring Algorithm = iota
	// Tree reduces along a binomial tree to rank 0 and broadcasts back:
	// log(k) latency, good for small tensors.
	Tree
	// Naive has every rank exchange full vectors with every peer and
	// reduce locally — the paper's strawman baseline.
	Naive
	// Hierarchical is the topology-aware three-phase AllReduce:
	// intra-host reduce to per-host leaders, inter-host ring among
	// leaders only, intra-host broadcast back. With a multi-host
	// Topology it sends 1/(ranks-per-host) of the flat ring's volume
	// across the network (Section 6.1's NIC-sharing collapse, answered
	// with Kumar et al.'s multi-ring structure); without one it falls
	// back to Ring.
	Hierarchical
	// DoubleTree runs two complementary in-order binary trees (NCCL
	// 2.4's double binary trees), each carrying half the payload, with
	// every rank an inner node in at most one tree: log(k) depth like
	// Tree but without Tree's half-idle leaves, so it keeps full
	// bandwidth while cutting Ring's 2(k-1) latency terms to
	// O(log k + chunks). See doubletree.go.
	DoubleTree
	// Auto picks per collective from the group's topology and the
	// message size: small messages take the log-depth Tree (a payload of
	// one pipeline chunk gets nothing from DoubleTree's two trees but
	// twice the frames), large messages on a multi-host topology take
	// Hierarchical, medium messages on deep worlds take DoubleTree's
	// pipelined trees, and everything else takes the bandwidth-optimal
	// Ring.
	Auto
)

// algorithmNames is the one name table, indexed by Algorithm: String
// reads it and ParseAlgorithm inverts it.
var algorithmNames = [...]string{
	Ring:         "ring",
	Tree:         "tree",
	Naive:        "naive",
	Hierarchical: "hierarchical",
	DoubleTree:   "doubletree",
	Auto:         "auto",
}

// String returns the algorithm name.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algorithmNames) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithmNames[a]
}

// ParseAlgorithm maps a name String returns back to its Algorithm — the
// spelling of the commands' -algo and -algos flags.
func ParseAlgorithm(s string) (Algorithm, error) {
	if i := slices.Index(algorithmNames[:], s); i >= 0 {
		return Algorithm(i), nil
	}
	return 0, fmt.Errorf("comm: unknown algorithm %q (want one of %s)", s, strings.Join(algorithmNames[:], ", "))
}

// Auto's selection cutoffs, in elements. They mirror NCCL's
// size-driven protocol/algorithm switch and the hw cost model's
// crossovers: below autoTreeMaxElems the 2(k-1) ring latency terms
// dominate and Tree's log(k) rounds win; from autoHierarchicalMinElems
// up, a multi-host world is bandwidth-bound on the shared NICs and the
// hierarchy's cross-machine volume reduction pays for its extra
// intra-host hops (walking both schedules, hw.Cluster.AllReduceSeconds
// prices the same crossover).
const (
	autoTreeMaxElems         = 4 << 10
	autoHierarchicalMinElems = 64 << 10
	// autoDoubleTreeDeepWorld is the world size from which DoubleTree
	// takes the medium-payload band (above the Tree cutoff, below the
	// Hierarchical one): Ring's 2(world-1) serialized steps dwarf the
	// trees' O(log world + chunks) pipelined depth there. Below the Tree
	// cutoff it never runs: BenchmarkAllReduceDeepWorld has Tree 2x ahead
	// of it at worlds 8 and 16, in-proc and over TCP.
	autoDoubleTreeDeepWorld = 32
)

// chooseAlgorithm is Auto's per-collective decision. topo may be nil
// (no placement information): then only the latency/bandwidth split
// applies. A topology that does not cover the world is ignored rather
// than trusted.
func chooseAlgorithm(topo *Topology, elems, world int) Algorithm {
	if elems <= autoTreeMaxElems {
		return Tree
	}
	if elems >= autoHierarchicalMinElems {
		if topo != nil && topo.Size() == world && topo.Hierarchical() {
			return Hierarchical
		}
		return Ring
	}
	if world >= autoDoubleTreeDeepWorld {
		return DoubleTree
	}
	return Ring
}

// chunkBounds splits n elements into k nearly-equal chunks, returning
// the [start, end) of chunk i.
func chunkBounds(n, k, i int) (int, int) {
	base, rem := n/k, n%k
	start := i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return start, start + size
}

// allReduce runs one AllReduce under an already-resolved algorithm (not
// Auto); topo is only read by Hierarchical.
func allReduce(m transport.Mesh, tag uint64, algo Algorithm, topo *Topology, data []float32, op ReduceOp) error {
	k, rank, n := m.Size(), m.Rank(), len(data)
	switch algo {
	case Ring:
		return ringAllReduce(m, tag, data, op)
	case Tree:
		return stepsAllReduce(m, tag, "tree allreduce", data, op, treeSteps(rank, k, n))
	case Naive:
		return naiveAllReduce(m, tag, data, op)
	case Hierarchical:
		_, err := hierarchicalAllReduce(run{m: m, rank: rank, tag: tag, data: data, op: op}, topo)
		return err
	case DoubleTree:
		return stepsAllReduce(m, tag, "double-tree allreduce", data, op, doubleTreeSteps(rank, k, n))
	default:
		return fmt.Errorf("comm: unknown algorithm %v", algo)
	}
}

// stepsAllReduce runs a float step list that leaves every rank holding
// the same fully folded buffer, then scales it for Avg.
func stepsAllReduce(m transport.Mesh, tag uint64, collective string, data []float32, op ReduceOp, steps []step) error {
	if _, err := runSteps(run{m: m, rank: m.Rank(), tag: tag, name: collective, data: data, op: op}, steps); err != nil {
		return err
	}
	finishAvg(data, op, m.Size())
	return nil
}

// ringAllReduce runs ringAllReduceSteps: the sharded pair — a ring
// reduce-scatter onto the chunk owners, then a ring all-gather of the
// owned chunks, over the same chunkBounds layout — or, between two
// ranks, the one exchange that evaluates the same expressions. After it
// returns, every rank holds bitwise-identical reduced data, each
// element the value its chunk's owner computes in the reduce-scatter,
// which is what lets DDP guarantee identical gradients (and therefore
// identical models) on every replica — and what lets ZeRO-style
// sharding splice an optimizer update between ReduceScatterV and
// AllGatherV and still produce bitwise the values a DDP AllReduce would
// have (see internal/fsdp). Avg is scaled where ReduceScatterV scales
// it: on the range the last fold completes on this rank, before the
// verbatim steps carry it on.
func ringAllReduce(m transport.Mesh, tag uint64, data []float32, op ReduceOp) error {
	k := m.Size()
	if k == 1 {
		return nil
	}
	steps := ringAllReduceSteps(m.Rank(), k, len(data))
	r := run{m: m, rank: m.Rank(), tag: tag, name: "ring allreduce", data: data, op: op}
	if _, err := runSteps(r, steps[:k-1]); err != nil {
		return err
	}
	finishAvg(data[steps[k-2].rLo:steps[k-2].rHi], op, k)
	r.name = "ring allreduce, gather pass"
	_, err := runSteps(r, steps[k-1:])
	return err
}

// allPeers lists mk(p) for every rank p of k but me, in rank order.
func allPeers(me, k int, mk func(p int) step) []step {
	steps := make([]step, 0, 2*k)
	for p := range k {
		if p != me {
			steps = append(steps, mk(p))
		}
	}
	return steps
}

// naiveSteps is the paper's strawman over a buffer of 2n elements, the
// accumulator then a snapshot of the input: ship the snapshot to every
// peer, then fold every rank's, this rank's own at its place, into the
// accumulator in rank order, so all replicas compute bitwise-identical
// results. The sends read the snapshot, never the range the folds write:
// a send reading the accumulator would have to be joined before the
// first fold, and at k >= 3 a blocking transport would deadlock on that.
func naiveSteps(rank, k, n int) []step {
	steps := allPeers(rank, k, func(p int) step { return step{to: p, from: -1, sLo: n, sHi: 2 * n} })
	for p := range k {
		st := step{to: -1, from: p, rHi: n, fold: p > 0}
		if p == rank {
			st.to, st.sLo, st.sHi = rank, n, 2*n
		}
		steps = append(steps, st)
	}
	return steps
}

// naiveAllReduce runs naiveSteps over a pooled copy of data.
func naiveAllReduce(m transport.Mesh, tag uint64, data []float32, op ReduceOp) error {
	k, rank, n := m.Size(), m.Rank(), len(data)
	buf := buffer.GetFloats(2 * n)
	defer buffer.PutFloats(buf)
	copy(buf[n:], data)
	if _, err := runSteps(run{m: m, rank: rank, tag: tag, name: "naive allreduce", data: buf, op: op}, naiveSteps(rank, k, n)); err != nil {
		return err
	}
	copy(data, buf[:n])
	finishAvg(data, op, k)
	return nil
}

// allGatherSteps gathers over k slots of n elements, slot p rank p's:
// ship the own slot to every peer, take every peer's into its slot.
func allGatherSteps(rank, k, n int) []step {
	return append(allPeers(rank, k, func(p int) step { return step{to: p, from: -1, sLo: rank * n, sHi: (rank + 1) * n} }),
		allPeers(rank, k, func(p int) step { return step{to: -1, from: p, rLo: p * n, rHi: (p + 1) * n} })...)
}

// allGather distributes src from every rank into dst[rank] on all ranks,
// running allGatherSteps over a pooled buffer.
func allGather(m transport.Mesh, tag uint64, dst [][]float32, src []float32) error {
	k, rank, n := m.Size(), m.Rank(), len(src)
	if len(dst) != k {
		return fmt.Errorf("comm: allgather dst has %d slots for world %d", len(dst), k)
	}
	buf := buffer.GetFloats(k * n)
	defer buffer.PutFloats(buf)
	copy(buf[rank*n:], src)
	if _, err := runSteps(run{m: m, rank: rank, tag: tag, name: "allgather", data: buf}, allGatherSteps(rank, k, n)); err != nil {
		return err
	}
	for p, d := range dst {
		if copy(d, buf[p*n:]) != n || len(d) != n {
			return fmt.Errorf("comm: allgather dst[%d] has %d elements for %d", p, len(d), n)
		}
	}
	return nil
}
