package comm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/buffer"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Every collective is data before it is traffic: each rank's part is a
// list of steps produced by a pure generator (ringSteps,
// ringAllReduceSteps, binomialReduceSteps, binomialBroadcastSteps,
// treeSteps, doubleTreeSteps, hierarchicalSteps, naiveSteps,
// allGatherSteps and the compressed builders), and runSteps is the one
// loop that turns any such list into Send/Recv calls on the float lane
// and SendBytes/RecvBytes calls on the byte lane. Nothing else in this
// package touches the transport, so the frame-length check, the joins of
// the sends in flight, the hand-back of every frame to the transport's
// buffer pool and every future pipelining change are written once — and
// because a schedule exists without a mesh, schedule_test.go checks
// every generator statically: matching sends and receives in per-link
// FIFO order, no cycle of blocking waits, the documented fold chains.

// step is one rank's move in a schedule over a flat buffer: ship
// data[sLo:sHi] to rank `to` while taking a frame for data[rLo:rHi] from
// rank `from`. A peer of -1 means no send (or no receive) this step; a
// peer that is the rank itself makes a local step, which never touches
// the wire (see runSteps). The frame lands one of three ways: verbatim
// (fold unset); folded INTO the buffer, data = data ∘ frame under the
// collective's op (fold); or, over the sub-range [uLo,uHi) of a folding
// step, folded UNDER it — frame = frame ∘ data, the same kernel with the
// operands swapped, then landed verbatim — which is what the sender
// evaluates when it folds this rank's frame INTO its buffer. kind says
// what the frames carry. A codec fold with round set also rounds what it
// lands: each sum is quantized once more, without the residual, and
// scaled by the run's scale — the two-rank exchange's landing, which
// leaves what the owner's stage-2 frame would decode to (compressedSteps).
type step struct {
	to, from int
	sLo, sHi int
	rLo, rHi int
	fold     bool
	uLo, uHi int
	kind     frameKind
	round    bool
}

// frameKind is what a step's frames carry: the buffer's float32 values,
// or the collective's codec on the byte lane — this rank's contribution,
// quantized with the caller's residual, or an already reduced value,
// quantized without it.
type frameKind uint8

const (
	floats frameKind = iota
	contribution
	reduced
)

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

// onto renumbers a schedule over len(ranks) participants onto them.
func onto(ranks []int, steps []step) []step {
	for i := range steps {
		st := &steps[i]
		if st.to >= 0 {
			st.to = ranks[st.to]
		}
		if st.from >= 0 {
			st.from = ranks[st.from]
		}
	}
	return steps
}

// frameLenError reports a frame whose length is not the one the
// schedule fixed for it: the peers disagree on the buffer size, the
// transport truncated the frame, or a codec's frame is not the size its
// EncodedSize declares (peer is then the rank that built it — this one,
// for its own encode). It names the collective, the rank that noticed,
// the peer, the step and the unit counted, so a wrong result can never
// hide behind a short copy or a misparsed frame.
type frameLenError struct {
	collective string
	rank, peer int
	step       int
	got, want  int
	unit       string // "elements" on the float lane, "bytes" on the byte lane
}

func (e *frameLenError) Error() string {
	return fmt.Sprintf("comm: %s on rank %d: step %d frame from rank %d has %d %s, want %d",
		e.collective, e.rank, e.step, e.peer, e.got, e.unit, e.want)
}

// checkFrame is the one frame-length check: nil when a frame of got
// units is what the schedule expects, the frameLenError otherwise.
func checkFrame(collective string, rank, peer, step, got, want int, unit string) error {
	if got == want {
		return nil
	}
	return &frameLenError{collective, rank, peer, step, got, want, unit}
}

// run is what a step list executes against: the mesh's float lane, its
// byte lane when the list has codec steps, this rank, the collective's
// tag and name (for errors), the buffer and op, and for codec steps the
// codec, the caller's residual (nil for none), the layout codec
// frames are cut along, chunkBounds(len(data), parts, ·), and the scale a
// rounding landing ends with (zero stands for 1). launch fills frames
// and launched before runSteps starts; the rest is runSteps' own state.
type run struct {
	m        transport.Mesh
	bm       transport.ByteMesh
	rank     int
	tag      uint64
	name     string
	data     []float32
	op       ReduceOp
	codec    Codec
	residual []float32
	parts    int
	scale    float32

	launched int         // leading steps whose frames launch built
	wire     int         // encoded bytes shipped
	sends    []*inflight // in flight, oldest first
	local    [][]float32 // local frames not yet landed, oldest first
	frames   [][]byte    // codec frames, released once every send is joined
	encErr   error       // the first own frame's length error
}

// inflight is a send under way and the range of data it reads (empty
// for a codec frame, which reads only itself); err is its outcome once
// sent is done.
type inflight struct {
	to, lo, hi int
	sent       sync.WaitGroup
	err        error
}

// runSteps executes one rank's steps in order over r.data and returns
// the encoded bytes it put on the byte lane.
//
// A step that both sends and receives runs its send on its own goroutine
// while it receives, and joins it before the frame lands, so the receive
// never waits on the send (no head-of-line deadlock on large messages).
// A step with no receive posts its send and moves on; a posted send is
// joined before a later step writes any range it still reads. Sends to
// one peer leave in list order. Every send is joined before runSteps
// returns, on every path, so no goroutine outlives the call or reads
// data after it returns — and a float send ships its range as it was
// when its step began, although the step (or a later one) receives into
// that very range.
//
// A codec step's send encodes its range chunk by chunk along the layout
// into one pooled frame, each chunk with its residual slice when it ships
// a contribution. Where the list reads the quantized value again — a
// reduced value, or a range the step also receives into — it quantizes
// the range in place (Encode's deq is the range itself), so this rank
// holds what its peers will decode; a contribution it only ships leaves
// the range alone. A send that repeats the step before it to another peer
// ships the same frame. A frame whose length is not the sum of its
// chunks' EncodedSize fails: a received one before it is decoded, and
// this rank's own at the next receive or at the end of the list, every
// frame it sends from then on going out empty so its peers fail too. A
// received frame lands chunk by
// chunk — Decode verbatim, DecodeAdd folded, and DecodeAdd also under a
// fold-under range: a codec fold adds one finite decoded value, and
// finite float addition commutes bit for bit.
//
// A local step moves no bytes. A local send's frame is its range — for a
// codec step, Encode's deq, with no wire frame built — held in a pooled
// float buffer until the local receive lands it where the list puts it;
// a codec step that sends and receives its own range verbatim just
// quantizes it in place. Every received frame goes back to the
// buffer pool once it has landed. The leading steps run.launch did
// before the list started ship and land what it built.
func runSteps(r run, steps []step) (wire int, err error) {
	x := &r
	defer func() {
		err = cmp.Or(err, x.join(func(*inflight) bool { return true }))
		for _, f := range x.frames {
			buffer.PutBytes(f)
		}
		for _, f := range x.local {
			buffer.PutFloats(f)
		}
		wire = x.wire
	}()
	for i, st := range steps {
		var deq []float32 // where a codec send leaves what its frame decodes to
		if i >= x.launched && st.to >= 0 && st.kind != floats && (st.kind == reduced || st.from >= 0) {
			// The encode writes the range: nothing may still read it.
			if err := x.joinReading(st.sLo, st.sHi); err != nil {
				return 0, err
			}
			deq = x.data[st.sLo:st.sHi]
		}
		var frame []byte
		switch {
		case st.to < 0:
		case i < x.launched && st.to == x.rank:
			continue // launched: quantized in place, or its local frame queued
		case st.to == x.rank && st.from == x.rank && st.inPlace():
			x.encode(st, nil, deq)
			continue
		case st.to == x.rank:
			x.local = append(x.local, x.encodeLocal(st))
		case st.kind != floats:
			before := steps[max(i-1, 0)]
			repeat := i > 0 && before.to >= 0 && before.to != x.rank
			if before.to = st.to; i >= x.launched && (!repeat || before != st) {
				x.encodeFrame(i, st, deq)
			}
			frame = x.frames[len(x.frames)-1]
			if i < x.launched {
				frame = x.frames[i] // launch builds peer frames before its local step
			}
			if x.encErr != nil {
				frame = frame[:0]
			}
			x.wire += len(frame)
		}
		var own *inflight
		if st.to >= 0 && st.to != x.rank {
			own = &inflight{to: st.to}
			own.sent.Add(1)
			if st.kind == floats {
				own.lo, own.hi = st.sLo, st.sHi
			}
			var prev *inflight // the send before it to the same peer
			for _, s := range x.sends {
				if s.to == st.to {
					prev = s
				}
			}
			x.sends = append(x.sends, own)
			// The goroutine captures what it reads, not the whole step.
			m, bm, tag, data, to, onFloats := x.m, x.bm, x.tag, x.data[own.lo:own.hi], st.to, st.kind == floats
			go func() {
				if prev != nil {
					prev.sent.Wait()
				}
				if onFloats {
					own.err = m.Send(to, tag, data)
				} else {
					own.err = bm.SendBytes(to, tag, frame)
				}
				own.sent.Done()
			}()
		}
		if st.from < 0 {
			continue
		}

		var buf []float32
		var raw []byte
		switch {
		case st.from == x.rank:
			buf, x.local = x.local[0], x.local[1:]
		case st.kind == floats:
			if buf, err = x.m.Recv(st.from, x.tag); err == nil {
				err = checkFrame(x.name, x.rank, st.from, i, len(buf), st.rHi-st.rLo, "elements")
			}
		default:
			if raw, err = x.bm.RecvBytes(st.from, x.tag); err == nil {
				err = checkFrame(x.name, x.rank, st.from, i, len(raw), x.encodedSize(st.rLo, st.rHi), "bytes")
			}
		}
		err = cmp.Or(err, x.join(func(s *inflight) bool { return s == own })) // the step's own send, if any
		if err = cmp.Or(err, x.encErr); err == nil {
			err = x.joinReading(st.rLo, st.rHi)
		}
		if err == nil {
			if st.kind == floats || st.from == x.rank {
				x.land(st, buf)
			} else if err = x.decode(st, raw); err != nil {
				err = fmt.Errorf("comm: %s on rank %d: step %d frame from rank %d: %w", x.name, x.rank, i, st.from, err)
			}
		}
		buffer.PutFloats(buf)
		buffer.PutBytes(raw)
		if err != nil {
			return 0, err
		}
	}
	return 0, x.encErr
}

// launch does, before runSteps starts, the list's leading contribution
// steps — the two-rank exchange's frame, stage 1's peer frames and its
// own chunk — which is all the codec work of a collective that reads the
// caller's data and residual: on the submitting goroutine it takes that
// work off the group worker's serial chain of collectives. Each is done
// as runSteps would do it: a peer's frame is built (quantizing its range
// in place where the step also receives into it), the own chunk is
// quantized in place or into a local frame; runSteps then ships and lands
// what launch built and skips the rest of those steps.
func (x *run) launch(steps []step) {
	for i, st := range steps {
		switch {
		case st.kind != contribution || st.to < 0 || st.to != x.rank && len(x.frames) != i:
			return // runSteps finds a launched peer frame at its step's index
		case st.to != x.rank:
			var deq []float32
			if st.from >= 0 {
				deq = x.data[st.sLo:st.sHi]
			}
			x.encodeFrame(i, st, deq)
		case st.from < 0:
			x.local = append(x.local, x.encodeLocal(st))
		case st.inPlace():
			x.encode(st, nil, x.data[st.sLo:st.sHi])
		default:
			return
		}
		x.launched++
	}
}

// inPlace reports whether st, a local codec step, just quantizes its
// range in place: it lands its own frame verbatim where it read it.
func (st step) inPlace() bool {
	return st.kind != floats && !st.fold && st.sLo == st.rLo && st.sHi == st.rHi
}

// encodeLocal is a local send's frame: st's range, or for a codec step
// what its frame decodes to, in a pooled float buffer.
func (x *run) encodeLocal(st step) []float32 {
	buf := buffer.GetFloats(st.sHi - st.sLo)
	if st.kind == floats {
		copy(buf, x.data[st.sLo:st.sHi])
	} else {
		x.encode(st, nil, buf)
	}
	return buf
}

// encodeFrame builds step i's codec frame in a pooled buffer, appends it
// to x.frames and records a length error.
func (x *run) encodeFrame(i int, st step, deq []float32) {
	want := x.encodedSize(st.sLo, st.sHi)
	frame := x.encode(st, buffer.GetBytes(want)[:0], deq)
	x.frames = append(x.frames, frame)
	x.encErr = cmp.Or(x.encErr, checkFrame(x.name, x.rank, x.rank, i, len(frame), want, "bytes"))
}

// join waits for the sends in flight that match, drops them and returns
// the first error among them.
func (x *run) join(match func(*inflight) bool) error {
	var err error
	x.sends = slices.DeleteFunc(x.sends, func(s *inflight) bool {
		joined := match(s)
		if joined {
			s.sent.Wait()
			err = cmp.Or(err, s.err)
		}
		return joined
	})
	return err
}

// joinReading joins the sends in flight that read data[lo:hi].
func (x *run) joinReading(lo, hi int) error {
	return x.join(func(s *inflight) bool { return s.lo < hi && lo < s.hi })
}

// land lands a float frame, received or local, as st says.
func (x *run) land(st step, buf []float32) {
	switch dst := x.data[st.rLo:st.rHi]; {
	case !st.fold:
		copy(dst, buf)
	case st.uLo == st.uHi || st.kind != floats:
		reduceInto(dst, buf, x.op)
	default:
		lo, hi := st.uLo-st.rLo, st.uHi-st.rLo
		reduceInto(dst[:lo], buf[:lo], x.op)
		reduceInto(buf[lo:hi], dst[lo:hi], x.op)
		copy(dst[lo:hi], buf[lo:hi])
		reduceInto(dst[hi:], buf[hi:], x.op)
	}
}

// pieces calls fn on every nonempty part of [lo,hi) that one chunk of
// the layout holds, in order.
func (x *run) pieces(lo, hi int, fn func(lo, hi int)) {
	for c := range x.parts {
		cLo, cHi := chunkBounds(len(x.data), x.parts, c)
		if a, b := max(lo, cLo), min(hi, cHi); a < b {
			fn(a, b)
		}
	}
}

// encodedSize is the length of the codec frame of data[lo:hi].
func (x *run) encodedSize(lo, hi int) int {
	size := 0
	x.pieces(lo, hi, func(lo, hi int) { size += x.codec.EncodedSize(hi - lo) })
	return size
}

// encode appends st's frame to frame and leaves in deq, which is nil or
// aligned with data[sLo:sHi], what the frame decodes to.
func (x *run) encode(st step, frame []byte, deq []float32) []byte {
	x.pieces(st.sLo, st.sHi, func(lo, hi int) {
		var res, d []float32
		if st.kind == contribution && x.residual != nil {
			res = x.residual[lo:hi]
		}
		if deq != nil {
			d = deq[lo-st.sLo : hi-st.sLo]
		}
		frame = x.codec.Encode(frame, x.data[lo:hi], res, d)
	})
	return frame
}

// decode lands a received codec frame, checked to be exactly its
// chunks' encodings back to back.
func (x *run) decode(st step, frame []byte) error {
	var err error
	decode := x.codec.Decode
	switch {
	case st.round:
		decode = func(buf []byte, acc []float32) error { return landRounded(x.codec, buf, acc, cmp.Or(x.scale, 1)) }
	case st.fold:
		decode = x.codec.DecodeAdd
	}
	x.pieces(st.rLo, st.rHi, func(lo, hi int) {
		part := frame[:x.codec.EncodedSize(hi-lo)]
		frame = frame[len(part):]
		err = cmp.Or(err, decode(part, x.data[lo:hi]))
	})
	return err
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
