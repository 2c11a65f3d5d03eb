package comm

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// The extended collectives round out the c10d API surface:
// ReduceScatter and Gather/Scatter are what sharded-optimizer schemes
// like ZeRO (discussed in the paper's Section 7) build on, and
// ReduceScatter is also the first phase of the ring AllReduce.

// ReduceScatter reduces equal chunks of src across ranks and leaves this
// rank's reduced chunk in dst: src holds Size() chunks of len(dst), and
// rank r receives the reduction of every rank's r-th chunk.
//
// The schedule is topology-aware like AllReduce's: a group configured
// (or Auto-resolved, at the same size cutoff) to Hierarchical with a
// multi-level Topology routes through the hierarchical submesh path —
// reduce up to the per-level leaders, leader ring, broadcast down,
// then every rank keeps its own chunk — so cross-host traffic is
// bounded by the leader ring regardless of how ranks are laid out
// across hosts, where the flat ring's cross-host volume degrades with
// adversarial placements. Every other configuration takes the flat
// ring reduce-scatter — ReduceScatterV's, equal chunks being what
// ChunkBounds yields here. Both schedules leave all ranks' chunks drawn
// from bitwise-identical reductions; the two differ in fold order,
// like switching AllReduce algorithms does.
func (g *meshGroup) ReduceScatter(dst, src []float32, op ReduceOp) Work {
	world := g.Size()
	if len(src) != world*len(dst) {
		return CompletedWork(fmt.Errorf("comm: reduce-scatter src %d != world %d * dst %d", len(src), world, len(dst)))
	}
	hier := g.resolveAlgorithm(len(src)) == Hierarchical && g.topo != nil && g.topo.Size() == world && g.topo.Hierarchical()
	return g.submit(func(tag uint64) error {
		start := time.Now()
		// Work on a copy so src is not clobbered.
		buf := append([]float32(nil), src...)
		var err error
		if hier {
			// Reusing the AllReduce schedule keeps the cross-host volume
			// properties of the leader-ring path at the cost of
			// broadcasting the full reduced vector back down intra-host —
			// cheap where it happens.
			_, err = hierarchicalAllReduce(g.mesh, tag, buf, op, g.topo, nil, nil)
		} else {
			err = ringReduceScatterOwned(g.mesh, tag, buf, op)
		}
		if err == nil {
			copy(dst, buf[g.Rank()*len(dst):])
		}
		observeCollective("reduce_scatter", len(src), start, err)
		return err
	})
}

// Gather collects src from every rank into dst on root (dst is ignored
// on other ranks; on root it must have Size() slices of len(src)).
func (g *meshGroup) Gather(dst [][]float32, src []float32, root int) Work {
	if root < 0 || root >= g.Size() {
		return CompletedWork(fmt.Errorf("comm: gather root %d out of range", root))
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := gather(g.mesh, tag, dst, src, root)
		observeCollective("gather", len(src), start, err)
		return err
	})
}

// Scatter distributes root's src slices to every rank's dst (src is
// ignored on non-roots; on root it must have Size() slices of len(dst)).
func (g *meshGroup) Scatter(dst []float32, src [][]float32, root int) Work {
	if root < 0 || root >= g.Size() {
		return CompletedWork(fmt.Errorf("comm: scatter root %d out of range", root))
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := scatter(g.mesh, tag, dst, src, root)
		observeCollective("scatter", len(dst), start, err)
		return err
	})
}

// AllToAll exchanges chunk j of every rank's src with rank j: dst ends
// up holding [rank 0's chunk-for-me, rank 1's chunk-for-me, ...]. Both
// src and dst hold Size() equal chunks. This is the primitive layer-
// sharding schemes (Mesh-TensorFlow style, paper Section 7) build on.
func (g *meshGroup) AllToAll(dst, src []float32) Work {
	world := g.Size()
	if len(src) != len(dst) || len(src)%world != 0 {
		return CompletedWork(fmt.Errorf("comm: all-to-all needs equal chunked buffers, got src %d dst %d world %d", len(src), len(dst), world))
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := allToAll(g.mesh, tag, dst, src)
		observeCollective("all_to_all", len(src), start, err)
		return err
	})
}

// ExtendedGroup is the optional interface for the collectives beyond
// the core ProcessGroup API. The mesh-backed groups implement it;
// composite groups may not.
type ExtendedGroup interface {
	ProcessGroup
	ReduceScatter(dst, src []float32, op ReduceOp) Work
	Gather(dst [][]float32, src []float32, root int) Work
	Scatter(dst []float32, src [][]float32, root int) Work
	AllToAll(dst, src []float32) Work
}

var _ ExtendedGroup = (*meshGroup)(nil)

// allToAll performs the pairwise chunk exchange.
func allToAll(m transport.Mesh, tag uint64, dst, src []float32) error {
	k, rank := m.Size(), m.Rank()
	n := len(src) / k
	return exchange(floatLane(m), tag, rank, otherRanks(k, rank), allRanks(k),
		func(p int) []float32 { return src[p*n : (p+1)*n] },
		landIn("all-to-all", rank, func(p int) []float32 { return dst[p*n : (p+1)*n] }))
}

// gather collects src into dst on root via direct sends.
func gather(m transport.Mesh, tag uint64, dst [][]float32, src []float32, root int) error {
	k, rank := m.Size(), m.Rank()
	to, from := []int{root}, []int(nil)
	if rank == root {
		if len(dst) != k {
			return fmt.Errorf("comm: gather dst has %d slots for world %d", len(dst), k)
		}
		to, from = nil, allRanks(k)
	}
	return exchange(floatLane(m), tag, rank, to, from,
		func(int) []float32 { return src },
		landIn("gather", rank, func(p int) []float32 { return dst[p] }))
}

// scatter distributes src chunks from root via direct sends.
func scatter(m transport.Mesh, tag uint64, dst []float32, src [][]float32, root int) error {
	k, rank := m.Size(), m.Rank()
	var to []int
	if rank == root {
		if len(src) != k {
			return fmt.Errorf("comm: scatter src has %d slots for world %d", len(src), k)
		}
		to = otherRanks(k, rank)
	}
	return exchange(floatLane(m), tag, rank, to, []int{root},
		func(p int) []float32 { return src[p] },
		landIn("scatter", rank, func(int) []float32 { return dst }))
}
