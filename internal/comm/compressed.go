package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/buffer"
	"repro/internal/transport"
)

// GradientCompressor is implemented by process groups whose AllReduce
// ships a codec's byte representation on the wire instead of full
// float32 frames (Section 6.2.3 made real: the byte savings exist on
// the sockets, not just in the simulator's cost model). meshGroup and
// roundRobin implement it, and a group decorator must forward it:
// CompressedAllReduce, the entry point callers (DDP) use, refuses a
// group without it.
type GradientCompressor interface {
	// CompressedAllReduce reduces data in place across all ranks like
	// AllReduce, quantizing through codec. residual is nil or a
	// caller-owned error-feedback accumulator of len(data), updated in
	// place (read it only after Wait).
	//
	// A compressed collective reads its contribution — data, and residual
	// — from its submission on, not when the group's worker reaches it:
	// the call may quantize its contribution, update residual and
	// quantize data in place before it returns (or, with two of the
	// group's compressed collectives launched ahead of it, once the first
	// of them finishes), so that the worker only sends, receives and lands
	// (PyTorch's fp16_compress_hook casts the bucket before all_reduce the
	// same way). Two collectives in flight over one buffer or one residual
	// therefore do not see each other's result; data and residual belong
	// to the collective from the call until Wait returns.
	CompressedAllReduce(data []float32, op ReduceOp, codec Codec, residual []float32) Work
}

// ErrCompressionUnsupported is what a compressed collective fails with,
// at submission and wrapped with the reason, when it cannot ride the
// byte lanes: the group does not implement GradientCompressor, its mesh
// carries no byte frames (transport.ByteLanes), or the op is not Sum or
// Avg — decode-reduce-reencode of Min/Max/Prod through a lossy
// representation compounds unpredictably. All three are properties of
// the configuration, identical on every rank, so every rank fails the
// same call: no tag is reserved, no frame is sent, data and residual are
// untouched and the group stays usable. There is no float fallback — a
// quantize-then-AllReduce is a different numerical trajectory, and a run
// must not switch trajectories because a decorator forgot a method.
var ErrCompressionUnsupported = errors.New("comm: compressed collective unsupported")

// CompressedAllReduce reduces data across pg through codec's compressed
// representation, shipping real bytes, or fails with
// ErrCompressionUnsupported. residual enables error feedback; see Codec.
// Like AllReduce, every rank must submit the same collectives in the
// same order, and all ranks finish with bitwise-identical data. A nil
// codec is a plain AllReduce.
//
// The schedule depends only on the resolved algorithm and the topology:
// a group configured (or Auto-resolved) to Hierarchical with a
// hierarchical topology runs the COMPRESSED LEADER RING — exact float32
// reduce/broadcast within each host (and each level of a structured
// topology), with only the outermost leader ring riding the codec's
// byte lanes — compression exactly where bytes are expensive. Every
// other configuration takes the flat compressed
// reduce-scatter/all-gather.
func CompressedAllReduce(pg ProcessGroup, data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	if codec == nil {
		return pg.AllReduce(data, op)
	}
	gc, ok := pg.(GradientCompressor)
	if !ok {
		return CompletedWork(fmt.Errorf("%w: %T does not implement GradientCompressor", ErrCompressionUnsupported, pg))
	}
	return gc.CompressedAllReduce(data, op, codec, residual)
}

// backUpResidual makes a collective's residual update transactional: the
// collective updates the caller's residual in place, from its submission
// on, and a failure puts back the pre-collective contents, which this
// copies into a pooled buffer, pre (see settleResidual). A collective
// aborted mid-flight (the elastic failure path) transmitted nothing, so
// the residual must not claim it did — a half-updated accumulator would
// skew every subsequent gradient, and nondeterministically, since the
// abort point depends on timing. The caller reads its residual only after
// Wait, so the intermediate state is never observed. A nil residual backs
// up to nothing.
func backUpResidual(residual []float32) (pre []float32) {
	pre = buffer.GetFloats(len(residual))
	copy(pre, residual)
	return pre
}

// settleResidual ends the transaction under the collective's outcome,
// which it returns: the update stands on success and is undone on
// failure.
func settleResidual(residual, pre []float32, err error) error {
	if err != nil {
		copy(residual, pre)
	}
	buffer.PutFloats(pre)
	return err
}

// CompressedAllReduce implements GradientCompressor on the mesh-backed
// group: the collective executes on the group's worker in submission
// order, exactly like AllReduce, once the flat schedule's contribution
// frames are built (see submitCompressed); the hierarchical schedule,
// whose first steps are float reductions, does all its work on the
// worker.
func (g *meshGroup) CompressedAllReduce(data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	if codec == nil {
		return g.AllReduce(data, op)
	}
	r := run{m: g.mesh, rank: g.Rank(), data: data, op: op, codec: codec, residual: residual}
	observe := func(elems int, start time.Time) { g.observeAllReduce("compressed", elems, start, nil) }
	if g.resolveAlgorithm(len(data)) == Hierarchical {
		return g.submitCompressed(r, nil, nil, observe)
	}
	steps, avg := flatCompressed(&r)
	return g.submitCompressed(r, steps, avg, observe)
}

// submitCompressed submits r's compressed collective, or refuses it with
// ErrCompressionUnsupported before a tag is reserved. steps is its list,
// and avg the part of r.data that Avg's closing 1/world scale covers once
// the list has run; nil steps run the hierarchical schedule instead,
// which builds its own list on the worker. observe records the success.
//
// Once the tag is reserved the collective is launched (compressedCall.
// launch): its residual is backed up — the update is transactional (see
// backUpResidual) — and the list's leading contribution frames are
// quantized (run.launch), so that the worker only sends, receives and
// lands. That happens on the submitting goroutine while fewer than
// maxLaunched of the group's compressed collectives are launched and
// unfinished; a later one is launched, off the worker, as soon as one
// ahead of it finishes. The bound keeps the buffers a launch holds — a
// residual backup and frames — to what the running collective and the
// next one need, however deep the queue: the buffer pool grows to
// the most that were ever held at once, so an unbounded number would keep
// growing it whenever the queue reached a new depth.
func (g *meshGroup) submitCompressed(r run, steps []step, avg []float32, observe func(elems int, start time.Time)) Work {
	if r.op != Sum && r.op != Avg {
		return CompletedWork(fmt.Errorf("%w: op %v (only sum and avg reduce through a codec)", ErrCompressionUnsupported, r.op))
	}
	bm, ok := transport.ByteLanes(g.mesh)
	if !ok {
		return CompletedWork(fmt.Errorf("%w: mesh %T has no byte lanes", ErrCompressionUnsupported, g.mesh))
	}
	if r.residual != nil && len(r.residual) != len(r.data) {
		return CompletedWork(fmt.Errorf("comm: residual has %d elements for %d data elements", len(r.residual), len(r.data)))
	}
	tag, w, err := g.reserve()
	if err != nil {
		return CompletedWork(err)
	}
	defer g.sending.Done()
	r.bm, r.tag = bm, tag
	c := &compressedCall{r: r, steps: steps, avg: avg, observe: observe}
	c.launched.Add(1)
	g.launchMu.Lock()
	now := g.launches < maxLaunched
	if now {
		g.launches++
	} else {
		g.deferred = append(g.deferred, c)
	}
	g.launchMu.Unlock()
	if now {
		c.launch()
	}
	g.ops <- func() { w.finish(g.runCompressed(c)) }
	return w
}

// maxLaunched bounds a group's compressed collectives that are launched
// and unfinished: the one its worker runs and the next (see
// submitCompressed).
const maxLaunched = 2

// A compressedCall is one compressed collective between its submission
// and its end on the group's worker.
type compressedCall struct {
	r        run
	steps    []step
	avg      []float32
	observe  func(elems int, start time.Time)
	pre      []float32      // the residual's backup, taken at launch
	launched sync.WaitGroup // done once launch has run
}

// launch backs up the residual and runs the list's submission-time work.
func (c *compressedCall) launch() {
	c.pre = backUpResidual(c.r.residual)
	c.r.launch(c.steps)
	c.launched.Done()
}

// runCompressed is the worker's part of a submitted compressed
// collective: it waits for the launch, runs the list and Avg's closing
// scale over avg, settles the residual transaction and records the
// observations, and then lets the next deferred collective launch.
func (g *meshGroup) runCompressed(c *compressedCall) error {
	c.launched.Wait()
	defer g.launchNext()
	start := time.Now()
	var wire int
	var err error
	if c.steps == nil {
		wire, err = hierarchicalAllReduce(c.r, g.topo)
	} else {
		wire, err = runScaled(c.r, c.steps, c.avg)
	}
	if settleResidual(c.r.residual, c.pre, err) != nil {
		return err
	}
	c.observe(len(c.r.data), start)
	if wire > 0 {
		mCompressedWireBytes.With(c.r.codec.Name()).Observe(float64(wire))
	}
	return nil
}

// launchNext hands a finished collective's launch slot to the oldest
// deferred one, which launches on a goroutine of its own while the worker
// runs the collective ahead of it.
func (g *meshGroup) launchNext() {
	g.launchMu.Lock()
	defer g.launchMu.Unlock()
	if len(g.deferred) == 0 {
		g.launches--
		return
	}
	c := g.deferred[0]
	g.deferred = g.deferred[1:]
	go c.launch()
}

// runScaled runs steps and then Avg's closing 1/world scale over avg,
// world being r's participant count.
func runScaled(r run, steps []step, avg []float32) (int, error) {
	wire, err := runSteps(r, steps)
	if err == nil {
		finishAvg(avg, r.op, r.parts)
	}
	return wire, err
}

// CompressedAllReduce dispatches to the next sub-group
// (GradientCompressor on roundRobin).
func (r *roundRobin) CompressedAllReduce(data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	g := r.pick()
	if g == nil {
		return CompletedWork(ErrClosed)
	}
	return CompressedAllReduce(g, data, op, codec, residual)
}

// compressedSteps is rank me's part of the wire-level compressed
// AllReduce (Sum) among k participants over n elements — every rank of a
// flat group, the outermost leaders of a hierarchical one: a
// reduce-scatter + all-gather over the chunkBounds layout, chunk j owned
// by participant j, in which every frame is the codec's byte
// representation riding the byte lanes.
//
// Stage 1 (compressedScatterSteps) leaves on each owner the exact
// float32 fold, in participant order, of the k quantized contributions to
// its chunk, its own included. Stage 2 (compressedGatherSteps) quantizes
// the reduced chunk once more, without the residual, and every rank
// decodes the same bytes the owner's chunk now holds, so all ranks
// finish bitwise-identical, the invariant DDP's replica consistency
// rests on. Alone (k = 1) there is nobody to gather from and stage 1's
// single quantization stands: quantization must not depend on world
// size — a single rank still pays the codec's accuracy cost and keeps
// its residual trajectory comparable to any other world's.
//
// With pair (two participants; see pairs) both stages are one exchange
// instead: ringPairStep as a rounding codec step — each rank ships both
// chunks, each quantized with its residual slice, and lands the peer's
// frame on its own quantized values in one pass: the addition is the
// owner's stage-1 fold on every chunk, since the one addition commutes,
// and rounding the sum without the residual leaves, by the Codec
// contract, exactly what the owner's stage-2 frame would decode to (then
// the run's scale, which finishes a flat Avg). Data, residuals and wire
// bytes are the two stages', in one frame a rank instead of two.
func compressedSteps(me, k, n int, pair bool) []step {
	if pair {
		st := ringPairStep(me, n)
		st.kind, st.round = contribution, true
		return []step{st}
	}
	return append(compressedScatterSteps(me, k, n), compressedGatherSteps(me, k, n)...)
}

// compressedScatterSteps is stage 1, the compressed reduce-scatter: post
// each peer's chunk, quantized with its residual slice, to its owner,
// then quantize the own chunk into a local frame, while those fly, and
// land the k contributions to the own chunk in participant order — the
// first verbatim, the rest folded. Participant 0's own frame lands first,
// so it just quantizes its chunk in place.
func compressedScatterSteps(me, k, n int) []step {
	lo, hi := chunkBounds(n, k, me)
	steps := allPeers(me, k, func(p int) step {
		lo, hi := chunkBounds(n, k, p)
		return step{to: p, from: -1, sLo: lo, sHi: hi, kind: contribution}
	})
	if me > 0 {
		steps = append(steps, step{to: me, from: -1, sLo: lo, sHi: hi, kind: contribution})
	}
	for p := range k {
		st := step{to: -1, from: p, rLo: lo, rHi: hi, fold: p > 0, kind: contribution}
		if p == me && me == 0 {
			st.to, st.sLo, st.sHi = me, lo, hi
		}
		steps = append(steps, st)
	}
	return steps
}

// compressedGatherSteps is stage 2, the compressed all-gather: post the
// reduced own chunk to every peer — one frame, quantized without the
// residual, which leaves in the chunk what it decodes to — and decode
// every peer's into its chunk.
func compressedGatherSteps(me, k, n int) []step {
	lo, hi := chunkBounds(n, k, me)
	return append(allPeers(me, k, func(p int) step { return step{to: p, from: -1, sLo: lo, sHi: hi, kind: reduced} }),
		allPeers(me, k, func(p int) step {
			lo, hi := chunkBounds(n, k, p)
			return step{to: -1, from: p, rLo: lo, rHi: hi, kind: reduced}
		})...)
}

// pairs reports whether k participants run compressedSteps' one
// exchange: two, up to ringPairMaxElems, under Float16Codec only. The
// exchange saves a hop and has each rank repeat its peer's fold and
// round trip; BenchmarkRingPairCrossover measured that repeat cheap
// enough for fp16 (γ within 2× of the float fold's) and slower than the
// saved hop at every size it tries for 1-bit (γ ≈ 5 ns/element) and
// top-k (γ ≈ 30, a quickselect per encode), so those keep the two stages.
func pairs(codec Codec, k, n int) bool {
	_, fp16 := codec.(Float16Codec)
	return fp16 && k == 2 && n <= ringPairMaxElems
}

// flatCompressed is the compressed AllReduce among every rank of r's
// mesh: it names r and sets its layout and landing scale, and returns
// the list and the part of r.data that Avg's closing scale covers after
// it — all of it after the two stages, none on the pair path, whose
// landing scales. Per rank the wire carries 2(k-1) compressed chunk
// frames (one holding both chunks on the pair path) instead of the flat
// ring's 2(k-1) float32 chunks: the full codec ratio, minus headers.
func flatCompressed(r *run) (steps []step, avg []float32) {
	k, n := r.m.Size(), len(r.data)
	r.name, r.parts = "compressed allreduce", k
	if !pairs(r.codec, k, n) {
		return compressedSteps(r.rank, k, n, false), r.data
	}
	if r.op == Avg {
		r.scale = 1 / float32(k)
	}
	return compressedSteps(r.rank, k, n, true), nil
}

var _ GradientCompressor = (*meshGroup)(nil)
var _ GradientCompressor = (*roundRobin)(nil)
