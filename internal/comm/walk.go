package comm

import "fmt"

// A step list is also a cost model: walking every rank's list on timed
// links prices the collective the lists run, so a model of the hardware
// (internal/hw) needs only the cost of one frame on one link, never a
// closed form per algorithm that can drift from the schedule. The walk's
// rules follow runSteps':
//
//   - each rank runs its list in order;
//   - a send starts once its rank reaches the step and its directed link
//     is free, holds the link for the frame's cost and lands at the end;
//   - a step that receives ends at the latest of the rank's clock, the
//     frame's landing and its own send's landing;
//   - a step with no receive posts its send and does not advance the
//     clock, but the rank finishes no earlier than its last landing;
//   - a local step is free.
//
// The collective takes as long as its last rank. Frames carry float32
// elements; a codec's ratio is the caller's to apply to the byte count.

// Hop is what one frame of bytes costs on the directed link from → to:
// the seconds it holds the link, latency and transfer together.
type Hop func(from, to, bytes int) float64

// WalkAllReduce returns the seconds the AllReduce of elems elements over
// world ranks takes under algo on links priced by hop: the walk of the
// step lists the group runs for algo, which is resolved (not Auto). topo
// is read by Hierarchical only, which without a topology that can beat
// the flat ring runs the ring, as the group does.
func WalkAllReduce(algo Algorithm, topo *Topology, world, elems int, hop Hop) float64 {
	var gen func(rank int) []step
	switch algo {
	case Ring:
		gen = func(r int) []step { return ringAllReduceSteps(r, world, elems) }
	case Tree:
		gen = func(r int) []step { return treeSteps(r, world, elems) }
	case Naive:
		gen = func(r int) []step { return naiveSteps(r, world, elems) }
	case Hierarchical:
		if topo == nil || !topo.Hierarchical() {
			return WalkAllReduce(Ring, nil, world, elems, hop)
		}
		top := func(me, k int) []step { return ringAllReduceSteps(me, k, elems) }
		gen = func(r int) []step { return hierarchicalSteps(r, elems, topo, top) }
	case DoubleTree:
		gen = func(r int) []step { return doubleTreeSteps(r, world, elems) }
	default:
		panic(fmt.Sprintf("comm: cannot walk algorithm %v", algo))
	}
	return walk(world, gen, hop)
}

// WalkReduceScatterV returns the seconds ReduceScatterV of elems
// elements over world ranks takes on links priced by hop.
func WalkReduceScatterV(world, elems int, hop Hop) float64 {
	return walk(world, func(r int) []step { return ringSteps(r, world, elems, r-1, true) }, hop)
}

// WalkAllGatherV returns the seconds AllGatherV of elems elements over
// world ranks takes on links priced by hop.
func WalkAllGatherV(world, elems int, hop Hop) float64 {
	return walk(world, func(r int) []step { return ringSteps(r, world, elems, r, false) }, hop)
}

// WalkBroadcast returns the seconds Broadcast of elems elements from rank
// 0 to world ranks takes on links priced by hop.
func WalkBroadcast(world, elems int, hop Hop) float64 {
	return walk(world, func(r int) []step { return binomialBroadcastSteps(r, world, elems, 0) }, hop)
}

// walk times every rank's list, gen(rank), over k ranks under the rules
// above. Every clock is some frame's landing, so the collective ends
// with the last landing. A rank that stops short of its end is a broken
// generator — the static checker proves none does — and panics.
func walk(k int, gen func(rank int) []step, hop Hop) float64 {
	// A move is what the walk reads of a step: its peers and the bytes
	// it ships. Holding only that keeps a long pipeline's lists small.
	type move struct {
		to, from int32
		bytes    int
	}
	lists := make([][]move, k)
	for r := range lists {
		steps := gen(r)
		lists[r] = make([]move, 0, len(steps))
		for _, st := range steps {
			lists[r] = append(lists[r], move{int32(st.to), int32(st.from), 4 * (st.sHi - st.sLo)})
		}
	}
	free := make([]float64, k*k)     // when the directed link from*k+to is free
	landed := make([][]float64, k*k) // the landings of its frames not yet received
	pc := make([]int, k)
	clock := make([]float64, k) // when the rank's current step began
	own := make([]float64, k)   // when the current step's send lands
	sent := make([]bool, k)     // the current step's send is on its link
	end := 0.0
	for progress := true; progress; {
		progress = false
		for r, list := range lists {
			for ; pc[r] < len(list); pc[r]++ {
				mv := list[pc[r]]
				if to := int(mv.to); !sent[r] && to >= 0 && to != r {
					link := r*k + to
					free[link] = max(clock[r], free[link]) + hop(r, to, mv.bytes)
					landed[link] = append(landed[link], free[link])
					own[r], end, progress = free[link], max(end, free[link]), true
				}
				sent[r] = true
				if from := int(mv.from); from >= 0 && from != r {
					q := landed[from*k+r]
					if len(q) == 0 {
						break
					}
					clock[r], landed[from*k+r] = max(clock[r], q[0], own[r]), q[1:]
				}
				sent[r], own[r], progress = false, 0, true
			}
		}
	}
	for r, list := range lists {
		if pc[r] < len(list) {
			panic(fmt.Sprintf("comm: walk blocked at steps %v", pc))
		}
	}
	return end
}
