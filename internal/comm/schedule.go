package comm

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
	"repro/internal/transport"
)

// A collective over one flat buffer is data before it is traffic: each
// rank's part is a list of steps produced by a pure generator
// (ringSteps, ringAllReduceSteps, binomialReduceSteps,
// binomialBroadcastSteps, treeSteps, doubleTreeSteps, hierarchicalSteps),
// and runSteps is the one loop that turns any such list into Send/Recv
// calls. The all-peers collectives, whose frames do not address one flat
// buffer, share exchange instead. Nothing outside this file touches the
// transport, so the frame-length check, the join of the in-flight send,
// the hand-back of every received frame to the transport's buffer pool
// and every future pipelining change are written once — and because a
// schedule exists without a mesh, schedule_test.go checks every
// generator statically: matching sends and receives in per-link FIFO
// order, no cycle of blocking waits, the documented fold chain.
//
// The contract between the two: a step's send ships its range as it was
// BEFORE the step, because runSteps joins the send before it lets the
// received frame touch the buffer — so a step may send a range it is
// receiving, as the two-rank exchange does.

// step is one rank's move in a schedule over a flat buffer: ship
// data[sLo:sHi] to rank `to` while taking a frame of exactly rHi-rLo
// elements from rank `from` into data[rLo:rHi]. A peer of -1 means no
// send (or no receive) this step. The frame lands one of three ways:
// verbatim (fold unset); folded INTO the buffer, data = data ∘ frame
// under the collective's op (fold); or, over the sub-range [uLo,uHi) of
// a folding step, folded UNDER it — frame = frame ∘ data, the same
// kernel with the operands swapped, then landed verbatim — which is what
// the sender evaluates when it folds this rank's frame INTO its buffer.
type step struct {
	to, from int
	sLo, sHi int
	rLo, rHi int
	fold     bool
	uLo, uHi int
}

// ringSteps is one pass around the ring over the chunkBounds layout:
// k-1 steps, at step s shipping chunk first-s to the right neighbour
// while taking chunk first-s-1 from the left, so a chunk received in
// one step is the chunk shipped in the next.
//
// first = rank-1 with fold is the ring reduce-scatter: chunk c starts
// on rank c+1 and is folded once per rank as it travels, its last fold
// landing on rank c — the owner, with no hop to spare. Every element
// of chunk c is therefore the chain
//
//	(((x[c+1] + x[c+2]) + ...) + x[c-1]) + x[c]    (indices mod k)
//
// evaluated on exactly one rank, the determinism every bitwise
// guarantee in this repository reduces to. first = rank without fold
// is the ring all-gather: rank r enters owning chunk r and leaves
// holding every chunk, copied verbatim.
func ringSteps(rank, k, n, first int, fold bool) []step {
	steps := make([]step, k-1)
	right, left := (rank+1)%k, (rank+k-1)%k
	for s := range steps {
		send := (first - s + k) % k // first >= -1 and s <= k-2
		st := step{to: right, from: left, fold: fold}
		st.sLo, st.sHi = chunkBounds(n, k, send)
		st.rLo, st.rHi = chunkBounds(n, k, (send+k-1)%k)
		steps[s] = st
	}
	return steps
}

// ringPairMaxElems is the largest buffer (1 MiB) two ranks AllReduce in
// one exchange. The exchange saves a hop, α, and pays a second fold of
// n/2 elements at γ each, so it wins up to n* = 2α/γ: γ = 0.75 ns for
// the memory-bound fold (BenchmarkRingPairCrossover measures it) and
// α = 0.1 ms. A link whose hop costs more gains on every collective; one
// whose hops are free loses that fold, 0.15 ms measured at the cutoff.
const ringPairMaxElems = 256 << 10

// ringAllReduceSteps is the ring AllReduce: the reduce-scatter pass,
// then the all-gather pass, 2(k-1) dependent hops. Two ranks need only
// one — both passes cross the same link — so up to ringPairMaxElems
// they ship each other the whole buffer once (2(k-1)/k·n = n elements
// either way) and fold it owner-ordered: this rank's chunk as the
// reduce-scatter would (data ∘ frame), the peer's chunk UNDER the
// buffer (frame ∘ data, what the peer computes as its owner). Every
// element is the expression the two passes evaluate, operand roles
// included, so the result is bitwise theirs for every op, NaN payloads
// and signed zeros too, with no appeal to commutativity. Either way the
// first k-1 steps fold and the last of them completes what it receives.
func ringAllReduceSteps(rank, k, n int) []step {
	if k == 2 && n <= ringPairMaxElems {
		return []step{ringPairStep(rank, n)}
	}
	return append(ringSteps(rank, k, n, rank-1, true), ringSteps(rank, k, n, rank, false)...)
}

// ringPairStep is the two-rank exchange of ringAllReduceSteps.
func ringPairStep(rank, n int) step {
	st := step{to: 1 - rank, from: 1 - rank, sHi: n, rHi: n, fold: true}
	st.uLo, st.uHi = chunkBounds(n, 2, 1-rank)
	return st
}

// frameLenError reports a received frame whose length is not the one
// the schedule fixed for it: the peers disagree on the buffer size, or
// the transport truncated the frame. It names the collective, the rank
// that noticed, the sending peer and the step, so a wrong result can
// never hide behind a short copy.
type frameLenError struct {
	collective string
	rank, peer int
	step       int
	got, want  int
}

func (e *frameLenError) Error() string {
	return fmt.Sprintf("comm: %s on rank %d: step %d frame from rank %d has %d elements, want %d",
		e.collective, e.rank, e.step, e.peer, e.got, e.want)
}

// checkFrame is the one frame-length check: nil when a frame of got
// elements is what the schedule expects, the frameLenError otherwise.
func checkFrame(collective string, rank, peer, step, got, want int) error {
	if got == want {
		return nil
	}
	return &frameLenError{collective: collective, rank: rank, peer: peer, step: step, got: got, want: want}
}

// runSteps executes one rank's steps in order over data. A step that
// both sends and receives issues the send on its own goroutine so the
// matching receive can proceed concurrently, preventing head-of-line
// deadlock on large messages; that send is joined on every path and
// before the frame lands, so no goroutine outlives the call, reads data
// after it returns, or sees a range the step's own receive has written.
// Every received frame goes back to the transport's pool once it has
// been folded or copied. collective names the schedule in errors.
func runSteps(m transport.Mesh, tag uint64, collective string, data []float32, op ReduceOp, steps []step) error {
	sent := make(chan error, 1) // at most one send is in flight
	for i, st := range steps {
		if st.from < 0 {
			if err := m.Send(st.to, tag, data[st.sLo:st.sHi]); err != nil {
				return err
			}
			continue
		}
		if st.to >= 0 {
			go func() { sent <- m.Send(st.to, tag, data[st.sLo:st.sHi]) }()
		}
		buf, err := m.Recv(st.from, tag)
		if err == nil {
			err = checkFrame(collective, m.Rank(), st.from, i, len(buf), st.rHi-st.rLo)
		}
		if st.to >= 0 {
			if serr := <-sent; err == nil {
				err = serr
			}
		}
		if err != nil {
			transport.PutFloats(buf)
			return err
		}
		switch dst := data[st.rLo:st.rHi]; {
		case !st.fold:
			copy(dst, buf)
		case st.uLo == st.uHi:
			reduceInto(dst, buf, op)
		default:
			lo, hi := st.uLo-st.rLo, st.uHi-st.rLo
			reduceInto(dst[:lo], buf[:lo], op)
			reduceInto(buf[lo:hi], dst[lo:hi], op)
			copy(dst[lo:hi], buf[lo:hi])
			reduceInto(dst[hi:], buf[hi:], op)
		}
		transport.PutFloats(buf)
	}
	return nil
}

// lane is one frame kind of a mesh — float32 frames or the byte frames
// of transport.ByteMesh — so exchange is written once for both. free
// hands a received frame back to the transport's pool.
type lane[T any] struct {
	send func(to int, tag uint64, data []T) error
	recv func(from int, tag uint64) ([]T, error)
	free func(frame []T)
}

func floatLane(m transport.Mesh) lane[float32] {
	return lane[float32]{m.Send, m.Recv, transport.PutFloats}
}

func byteLane(bm transport.ByteMesh) lane[byte] {
	return lane[byte]{bm.SendBytes, bm.RecvBytes, transport.PutBytes}
}

// exchange is the all-peers pattern: out(p) is shipped concurrently to
// every rank p in to, then in(p, frame) consumes the frame of every
// rank p in from, in the order listed — which is what fixes a fold
// order. Each out(p) is asked for when its send is about to start, so a
// caller that builds frames on demand has frame p on the wire while it
// builds the next. Listing this rank in from hands in its own out(rank)
// without touching the wire, at its position in the order like any
// other contribution; out(rank) itself is evaluated once every send is
// under way and before the first receive blocks, so whatever it costs
// is spent while the frames fly instead of after the wait for a peer's.
// A frame is only in's for the duration of the call: received frames go
// back to the transport's pool as soon as in returns. Every outstanding
// send is joined before exchange returns, on the error paths too: no
// goroutine is left reading a caller's buffer.
func exchange[T any](l lane[T], tag uint64, rank int, to, from []int, out func(p int) []T, in func(p int, frame []T) error) error {
	sent := make(chan error, len(to)) // one slot per send: none blocks on the join
	for _, p := range to {
		frame := out(p)
		go func() { sent <- l.send(p, tag, frame) }()
	}
	var own []T
	if slices.Contains(from, rank) {
		own = out(rank)
	}
	var err error
	for _, p := range from {
		if p == rank {
			err = in(p, own)
		} else {
			var frame []T
			if frame, err = l.recv(p, tag); err == nil {
				err = in(p, frame)
				l.free(frame)
			}
		}
		if err != nil {
			break
		}
	}
	for range to {
		if serr := <-sent; err == nil {
			err = serr
		}
	}
	return err
}

// allRanks lists 0..k-1 and without drops rank from a list: the usual
// peer sets of an exchange.
func allRanks(k int) []int {
	ps := make([]int, k)
	for p := range ps {
		ps[p] = p
	}
	return ps
}

func without(ranks []int, rank int) []int {
	ps := make([]int, 0, len(ranks))
	for _, p := range ranks {
		if p != rank {
			ps = append(ps, p)
		}
	}
	return ps
}

// landIn returns the exchange sink of the float collectives that only
// move data: rank p's frame must have exactly the length of dst(p) and
// is copied into it.
func landIn(collective string, rank int, dst func(p int) []float32) func(p int, frame []float32) error {
	return func(p int, frame []float32) error {
		d := dst(p)
		if err := checkFrame(collective, rank, p, 0, len(frame), len(d)); err != nil {
			return err
		}
		copy(d, frame)
		return nil
	}
}

// finishAvg applies Avg's 1/world scale; every other op is already
// finished when its folds are. Avg folds as Sum everywhere, and each
// reduced value is scaled exactly once — by its owner before it
// travels or by every holder of a bitwise-identical copy after, which
// is the same float32 product.
func finishAvg(data []float32, op ReduceOp, world int) {
	if op != Avg {
		return
	}
	tensor.ScaleFloats(data, 1/float32(world))
}
