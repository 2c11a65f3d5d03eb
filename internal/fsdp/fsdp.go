package fsdp

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/reduce"
	"repro/internal/replica"
	"repro/internal/tensor"
)

// Strategy selects how much replica state is sharded.
type Strategy int

const (
	// ZeRO2 shards gradients and optimizer state; parameters stay
	// replicated.
	ZeRO2 Strategy = iota
	// ZeRO3 additionally shards parameters, gathering them per bucket
	// one bucket ahead of the forward and backward units that read them.
	ZeRO3
)

// String names the strategy as the CLI flags spell it.
func (s Strategy) String() string {
	switch s {
	case ZeRO2:
		return "zero2"
	case ZeRO3:
		return "zero3"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps the CLI spelling back to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "zero2":
		return ZeRO2, nil
	case "zero3":
		return ZeRO3, nil
	default:
		return 0, fmt.Errorf("fsdp: unknown strategy %q (want zero2 or zero3)", s)
	}
}

// Options configures an FSDP wrapper.
type Options struct {
	// Strategy picks ZeRO2 (default) or ZeRO3.
	Strategy Strategy
	// BucketCapBytes bounds each gradient bucket exactly like
	// ddp.Options.BucketCapBytes — the SAME packing, which is what
	// keeps element ownership aligned with a DDP reference run. Zero
	// selects reduce.DefaultBucketCapBytes; negative means one bucket
	// per parameter.
	BucketCapBytes int
	// LR and Momentum parameterize the fused sharded momentum-SGD
	// step (optim.ShardedMomentumStep — the same operation sequence as
	// optim.SGD).
	LR       float32
	Momentum float32
	// NewCodec optionally compresses gradient shards on the wire:
	// buckets ride comm.CompressedReduceScatterV (byte lanes, or
	// comm.ErrCompressionUnsupported from Backward) with engine-owned
	// error-feedback residuals keyed by parameter identity. Compressed
	// runs are NOT bitwise-comparable to compressed DDP: DDP's
	// AllReduce re-quantizes the reduced bucket for its broadcast
	// stage, while the sharded reduce feeds the exact fold straight to
	// the local optimizer.
	NewCodec func() comm.Codec
	// SkipInitialBroadcast suppresses the constructor's rank-0
	// parameter/buffer broadcast, for callers that aligned replicas
	// externally (the elastic agent's checkpoint-restore path).
	SkipInitialBroadcast bool
	// TestingOnGather, when non-nil, runs immediately before every
	// ZeRO-3 parameter AllGatherV launch with the bucket index. Gathers
	// are launched one bucket ahead of need, so the call may come one
	// bucket earlier than the unit that reads the bucket. The chaos
	// harness uses it to kill ranks mid-gather; never set it outside
	// tests.
	TestingOnGather func(bucket int)
}

// Stats is the memory/traffic accounting the sharding ablation and the
// CI memory gate read. All byte counts are float32 payload bytes.
type Stats struct {
	// FullParamBytes is the unsharded model size.
	FullParamBytes int
	// ShardParamBytes is the persistently resident parameter bytes per
	// rank: the owned chunks under ZeRO3, the full model under ZeRO2.
	ShardParamBytes int
	// PeakParamBytes is the maximum transiently resident parameter
	// bytes observed: shards plus every bucket that is gathered or whose
	// gather is in flight. Under ZeRO3 that is at most the shards, the
	// buckets of the running unit and one bucket of look-ahead (plus the
	// kept buckets of the last unit when Forward runs again without a
	// Backward in between).
	PeakParamBytes int
	// OptimizerBytes is the momentum shard size — the state ZeRO
	// divides by world.
	OptimizerBytes int
	// ResidualBytes is the error-feedback store size (zero without a
	// wire codec).
	ResidualBytes int
	// PeakGradBytes is the maximum gradient bucket bytes observed; the
	// engine's transient buffers release after every step.
	PeakGradBytes int
	// Gathers and Reduces count parameter AllGatherV and gradient
	// ReduceScatterV launches. A ZeRO3 step launches one gather per
	// bucket in forward and one in backward, less the last unit's
	// buckets, which stay gathered from forward into backward.
	Gathers int
	Reduces int
}

// FSDP wraps an nn.Module for sharded data parallel training with a
// fused sharded optimizer: Backward both reduces gradients and applies
// the momentum-SGD update, so there is no separate optimizer Step.
// Gradient bucketing, launch ordering, and residuals come from the
// same reduce.Engine DDP uses; only the launched collective differs.
type FSDP struct {
	module nn.Module
	units  []nn.Module
	pg     comm.ProcessGroup
	sg     comm.ShardedGroup
	opts   Options

	params  []*nn.Parameter
	sizes   []int
	offsets []int // element offset of each parameter in the model-order flat vector
	total   int   // element count of that vector
	engine  *reduce.Engine
	assign  *reduce.Assignment
	codec   comm.Codec

	// Per-bucket shard layout: rank owns bucket chunk
	// comm.ChunkBounds(BucketElems[b], world, rank).
	ownedLo, ownedHi []int
	velocity         [][]float32 // owned momentum chunks
	// flats[b] is bucket b's parameter storage in the bucket's offset
	// layout, and every member parameter's Value is a view of its range
	// of it: AllGatherV runs on the flat itself and the optimizer
	// updates flats[b][ownedLo[b]:ownedHi[b]] in place. Under ZeRO-3 the
	// ranges outside the owned chunk are zero unless the bucket is
	// gathered.
	flats       [][]float32
	state       []residency
	remaining   []int   // ZeRO-3: member grads outstanding before free
	unitBuckets [][]int // buckets each unit's parameters touch
	lastUnitOf  []int   // last forward unit touching each bucket

	// The ZeRO-3 gather schedule (see mapUnits): one plan per pass, the
	// buckets forward leaves gathered for backward, the position of the
	// running pass's next launch, and the gathers launched but not yet
	// waited for, oldest first.
	fwd, bwd gatherPlan
	kept     []bool
	cursor   int
	inflight []gather

	bufferSyncPending bool
	residentParam     int // current resident param bytes (ZeRO-3)
	// deferred records a collective failure hit where there is no error
	// channel — the buffer broadcast ahead of forward, a gather inside
	// the forward/backward graph walk behind the nn.Module interfaces;
	// Backward surfaces it. Once set, further gathers are skipped and
	// the affected layers compute on zeroed parameters — garbage that is
	// discarded when Backward returns the error (the elastic agent then
	// tears the world down and rolls back).
	deferred error
	stats    Stats
}

// residency is where a ZeRO-3 bucket's non-owned parameter ranges
// stand. ZeRO-2 buckets are always gathered.
type residency uint8

const (
	sharded   residency = iota // only the owned chunk is held; the rest is zero
	gathering                  // an AllGatherV into the flat is in flight
	gathered                   // the flat holds every rank's chunk
)

// gatherPlan is one pass's gather schedule: the buckets in the order
// the pass first needs them and, per unit, how many entries of that
// sequence must have landed before the unit runs.
type gatherPlan struct {
	seq  []int
	need []int
}

// gather is one launched AllGatherV.
type gather struct {
	bucket int
	work   comm.Work
}

// New wraps module for sharded training over pg, which must support
// the sharded collectives (mesh-backed groups do). Replicas are
// aligned by a rank-0 broadcast exactly like ddp.New, then — under
// ZeRO3 — every rank drops the parameter elements it does not own.
func New(module nn.Module, pg comm.ProcessGroup, opts Options) (*FSDP, error) {
	sg, ok := pg.(comm.ShardedGroup)
	if !ok {
		return nil, errors.New("fsdp: process group does not support the sharded collectives")
	}
	if opts.BucketCapBytes == 0 {
		opts.BucketCapBytes = reduce.DefaultBucketCapBytes
	}
	f := &FSDP{module: module, pg: pg, sg: sg, opts: opts, params: module.Parameters()}
	if len(f.params) == 0 {
		return nil, errors.New("fsdp: module has no parameters")
	}
	f.sizes = make([]int, len(f.params))
	f.offsets = make([]int, len(f.params))
	for i, p := range f.params {
		f.sizes[i] = p.Value.Size()
		f.offsets[i] = f.total
		f.total += f.sizes[i]
	}
	if opts.NewCodec != nil {
		f.codec = opts.NewCodec()
	}

	engine, err := reduce.NewEngine(reduce.Config{
		Sizes:          f.sizes,
		Launch:         f.launchBucket,
		TrackResiduals: f.codec != nil,
		Transient:      true,
	})
	if err != nil {
		return nil, err
	}
	f.engine = engine

	if !opts.SkipInitialBroadcast {
		var works []comm.Work
		for _, p := range f.params {
			works = append(works, pg.Broadcast(p.Value.Data(), 0))
		}
		for _, b := range module.Buffers() {
			works = append(works, pg.Broadcast(b.Data.Data(), 0))
		}
		if err := comm.WaitAll(works...); err != nil {
			return nil, fmt.Errorf("fsdp: broadcasting initial state: %w", err)
		}
	}

	assign, err := reduce.AssignBuckets(f.sizes, opts.BucketCapBytes, 4, reduce.ReverseOrder(len(f.params)))
	if err != nil {
		return nil, err
	}
	f.installShards(assign)
	f.mapUnits()

	for i, p := range f.params {
		idx, shape := i, p.Value.Shape()
		p.RegisterPostAccumulateHook(func(*autograd.Variable) { f.autogradHook(idx) })
		// The gradient's destination is its slot in the engine's
		// transient bucket flat, looked up when backward asks: that call
		// is what draws the flat from the pool, at the bucket's first
		// gradient as before.
		p.SetGradDestination(func() *tensor.Tensor { return tensor.FromSlice(f.engine.Slot(idx), shape...) })
	}
	f.stats.FullParamBytes = 4 * f.total
	f.stats.OptimizerBytes = f.optimizerBytes()
	f.stats.ResidualBytes = 0
	if f.codec != nil {
		f.stats.ResidualBytes = 4 * f.total
	}
	f.stats.ShardParamBytes = f.shardParamBytes()
	f.residentParam = f.stats.FullParamBytes // fully resident until sharded
	f.shardAll()
	f.stats.PeakParamBytes = f.currentParamBytes()
	return f, nil
}

// installShards adopts a bucket assignment and (re)builds the shard
// layout derived from it: owned chunk bounds, momentum shards, and the
// per-bucket parameter flats, which take over the parameters' current
// (full) values and become their storage.
func (f *FSDP) installShards(assign *reduce.Assignment) {
	f.assign = assign
	f.engine.Install(assign)
	world := f.pg.Size()
	rank := f.pg.Rank()
	nb := assign.NumBuckets()
	f.ownedLo = make([]int, nb)
	f.ownedHi = make([]int, nb)
	f.velocity = make([][]float32, nb)
	f.flats = make([][]float32, nb)
	f.state = make([]residency, nb)
	f.remaining = make([]int, nb)
	f.inflight = make([]gather, 0, nb)
	for b, members := range assign.Buckets {
		lo, hi := comm.ChunkBounds(assign.BucketElems[b], world, rank)
		f.ownedLo[b], f.ownedHi[b] = lo, hi
		f.velocity[b] = make([]float32, hi-lo)
		f.flats[b] = make([]float32, assign.BucketElems[b])
		f.state[b] = gathered // params start resident
		for _, idx := range members {
			p, off := f.params[idx], assign.OffsetOf[idx]
			view := f.flats[b][off : off+f.sizes[idx]]
			copy(view, p.Value.Data())
			p.Value = tensor.FromSlice(view, p.Value.Shape()...)
		}
	}
}

// shardAll drops every bucket's non-owned parameter ranges under ZeRO3
// — the step from "full parameters are in the model's tensors" (after
// the constructor's broadcast, or a caller's restore ahead of Rebind) to
// the steady sharded state.
func (f *FSDP) shardAll() {
	if f.opts.Strategy != ZeRO3 {
		return
	}
	for b := range f.flats {
		f.freeBucket(b)
	}
}

// mapUnits decomposes the module into forward units — the gather/free
// granularity of ZeRO-3 — and emits the gather schedule they imply. A
// Sequential's children are its units; any other module is a single
// unit. For each unit the touched buckets are precomputed, as is each
// bucket's last forward consumer; the forward plan lists the buckets in
// the order units first read them, the backward plan in the order the
// units' backward hooks do (last unit first); the buckets of the last
// unit that has any come first in the backward plan, so forward keeps
// them gathered.
func (f *FSDP) mapUnits() {
	if seq, ok := f.module.(*nn.Sequential); ok {
		f.units = seq.Children()
	} else {
		f.units = []nn.Module{f.module}
	}
	// Parameters() of a Sequential concatenates child parameters in
	// order, so a running offset recovers each unit's index range.
	nb := f.assign.NumBuckets()
	f.unitBuckets = make([][]int, len(f.units))
	f.lastUnitOf = make([]int, nb)
	next := 0
	for u, unit := range f.units {
		for range unit.Parameters() {
			b := f.assign.BucketOf[next]
			if !slices.Contains(f.unitBuckets[u], b) {
				f.unitBuckets[u] = append(f.unitBuckets[u], b)
			}
			f.lastUnitOf[b] = u
			next++
		}
	}
	f.fwd = gatherPlan{need: make([]int, len(f.units))}
	f.bwd = gatherPlan{need: make([]int, len(f.units))}
	for u := range f.units {
		f.fwd.add(u, f.unitBuckets[u])
	}
	f.kept = make([]bool, nb)
	for u := len(f.units) - 1; u >= 0; u-- {
		if len(f.bwd.seq) == 0 {
			for _, b := range f.unitBuckets[u] {
				f.kept[b] = true
			}
		}
		f.bwd.add(u, f.unitBuckets[u])
	}
}

// add appends the buckets the plan has not listed yet and records how
// far into the sequence unit u reads.
func (p *gatherPlan) add(u int, buckets []int) {
	for _, b := range buckets {
		pos := slices.Index(p.seq, b)
		if pos < 0 {
			pos = len(p.seq)
			p.seq = append(p.seq, b)
		}
		p.need[u] = max(p.need[u], pos+1)
	}
}

// launchBucket is the reduce.Launcher fsdp plugs into the shared
// engine: a sharded reduce-scatter per bucket instead of DDP's full
// AllReduce. The flat ring schedule makes the owned chunk bitwise the
// AllReduce result.
func (f *FSDP) launchBucket(bucket int, flat, resFlat []float32) comm.Work {
	f.stats.Reduces++
	if g := f.engine.BucketBytes(); g > f.stats.PeakGradBytes {
		f.stats.PeakGradBytes = g
	}
	if f.codec != nil {
		return f.sg.CompressedReduceScatterV(flat, comm.Avg, f.codec, resFlat)
	}
	return f.sg.ReduceScatterV(flat, comm.Avg)
}

// Module returns the wrapped local model.
func (f *FSDP) Module() nn.Module { return f.module }

// ProcessGroup returns the communication backend in use.
func (f *FSDP) ProcessGroup() comm.ProcessGroup { return f.pg }

// Parameters exposes the wrapped model's parameters, whose Value
// tensors are views of the wrapper's per-bucket flats. Under ZeRO3 they
// hold zeros for non-owned elements except while gathered; use
// Materialize before reading full values.
func (f *FSDP) Parameters() []*nn.Parameter { return f.params }

// NumBuckets reports the gradient bucket count.
func (f *FSDP) NumBuckets() int { return f.assign.NumBuckets() }

// Assignment returns the parameter-to-bucket mapping (identical to the
// one ddp.New would build for the same model and cap).
func (f *FSDP) Assignment() *reduce.Assignment { return f.assign }

// Strategy reports the configured sharding strategy.
func (f *FSDP) Strategy() Strategy { return f.opts.Strategy }

// Stats returns the current memory/traffic accounting.
func (f *FSDP) Stats() Stats { return f.stats }

// ShardBytes returns the per-rank persistent parameter + optimizer
// state bytes — the quantity the CI memory gate bounds against DDP.
func (f *FSDP) ShardBytes() int { return f.stats.ShardParamBytes + f.stats.OptimizerBytes }

// optimizerBytes sums the momentum shard lengths.
func (f *FSDP) optimizerBytes() int {
	total := 0
	for _, v := range f.velocity {
		total += 4 * len(v)
	}
	return total
}

// shardParamBytes is the persistently resident parameter bytes.
func (f *FSDP) shardParamBytes() int {
	if f.opts.Strategy != ZeRO3 {
		return f.stats.FullParamBytes
	}
	total := 0
	for b := range f.ownedLo {
		total += 4 * (f.ownedHi[b] - f.ownedLo[b])
	}
	return total
}

// currentParamBytes is the resident parameter bytes right now: shards
// plus the buckets gathered or being gathered (ZeRO2 is always fully
// resident).
func (f *FSDP) currentParamBytes() int {
	if f.opts.Strategy != ZeRO3 {
		return f.stats.FullParamBytes
	}
	return f.residentParam
}

// notePeak folds the current residency into the peak.
func (f *FSDP) notePeak() {
	if cur := f.currentParamBytes(); cur > f.stats.PeakParamBytes {
		f.stats.PeakParamBytes = cur
	}
}

// nonOwnedBytes is what gathering bucket b adds to this rank's resident
// parameter bytes.
func (f *FSDP) nonOwnedBytes(b int) int {
	return 4 * (f.assign.BucketElems[b] - (f.ownedHi[b] - f.ownedLo[b]))
}

// freeBucket drops a gathered ZeRO-3 bucket's non-owned parameters:
// their ranges of the flat are zeroed, which both gives up the only
// copy of them this rank has (the owned chunk stays where it is) and
// makes any read of an un-gathered parameter loudly wrong instead of
// silently stale.
func (f *FSDP) freeBucket(b int) {
	if f.state[b] != gathered {
		return
	}
	clear(f.flats[b][:f.ownedLo[b]])
	clear(f.flats[b][f.ownedHi[b]:])
	f.state[b] = sharded
	f.residentParam -= f.nonOwnedBytes(b)
}

// launchGather starts the in-place AllGatherV that fills a sharded
// bucket's flat from every owner's chunk. The bucket counts as resident
// from here on. A bucket that is already gathered (kept from forward, or
// by Materialize) or on its way is left alone.
func (f *FSDP) launchGather(b int) {
	if f.state[b] != sharded {
		return
	}
	if f.opts.TestingOnGather != nil {
		f.opts.TestingOnGather(b)
	}
	f.stats.Gathers++
	f.state[b] = gathering
	f.residentParam += f.nonOwnedBytes(b)
	f.notePeak()
	f.inflight = append(f.inflight, gather{bucket: b, work: f.sg.AllGatherV(f.flats[b])})
}

// land waits for the oldest gather in flight. A failed gather's partial
// result is discarded: the bucket goes back to sharded.
func (f *FSDP) land() error {
	g := f.inflight[0]
	f.inflight = f.inflight[:copy(f.inflight, f.inflight[1:])]
	err := g.work.Wait()
	f.state[g.bucket] = gathered
	if err != nil {
		f.freeBucket(g.bucket)
		return fmt.Errorf("gathering bucket %d parameters: %w", g.bucket, err)
	}
	return nil
}

// drain waits out every gather in flight and returns the first failure.
func (f *FSDP) drain() error {
	var first error
	for len(f.inflight) > 0 {
		if err := f.land(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// advance is all a unit does about gathers: move the running pass's
// cursor. It launches the plan's gathers through what unit u reads plus
// one bucket — before waiting, so the group's serial worker goes from
// one gather straight into the next while the unit computes — and then
// waits for exactly the buckets the unit reads. Launches happen here, on
// the training goroutine, in plan order, so every rank submits the same
// collectives in the same order. A failure is downgraded to the deferred
// error Backward reports: a gather can only fail when the process group
// broke (a peer died, the group was aborted), and the graph walk it
// interrupts runs inside interfaces with no error return. Once one is
// recorded nothing more is launched and the remaining units compute on
// zeroed parameters, keeping tensor shapes (and the caller's loss
// construction) intact while the iteration's results are doomed to be
// discarded.
func (f *FSDP) advance(p *gatherPlan, u int) {
	need := p.need[u]
	for ; f.deferred == nil && f.cursor <= need && f.cursor < len(p.seq); f.cursor++ {
		f.launchGather(p.seq[f.cursor])
	}
	for len(f.inflight) > 0 && slices.Index(p.seq, f.inflight[0].bucket) < need {
		if err := f.land(); err != nil && f.deferred == nil {
			f.deferred = err
		}
	}
}

// Forward runs the model's forward pass. ZeRO2 runs it directly (full
// parameters are resident); ZeRO3 walks the units, advancing the forward
// gather plan ahead of each unit's forward, inserting the backward hook
// that advances the backward plan on its output, and freeing each bucket
// after its last forward consumer — except the last unit's buckets,
// which are the first thing backward reads and stay gathered for it.
func (f *FSDP) Forward(x *autograd.Variable) *autograd.Variable {
	f.deferred = nil
	f.broadcastBuffersIfPending()
	f.engine.Reset()
	if f.opts.Strategy != ZeRO3 {
		return f.module.Forward(x)
	}
	for b := range f.remaining {
		f.remaining[b] = len(f.assign.Buckets[b])
	}
	f.cursor = 0
	for u, unit := range f.units {
		f.advance(&f.fwd, u)
		x = unit.Forward(x)
		if len(f.unitBuckets[u]) > 0 {
			x = autograd.BackwardHook(x, func() { f.advance(&f.bwd, u) })
		}
		for _, b := range f.unitBuckets[u] {
			if f.lastUnitOf[b] == u && !f.kept[b] {
				f.freeBucket(b)
			}
		}
	}
	return x
}

// broadcastBuffersIfPending mirrors DDP's buffer handling: rank 0's
// buffer values are pushed to all ranks before the forward pass
// following a synchronized backward. A failure (a peer died since that
// backward) is deferred to Backward like a failed gather.
func (f *FSDP) broadcastBuffersIfPending() {
	if !f.bufferSyncPending {
		return
	}
	buffers := f.module.Buffers()
	if len(buffers) == 0 {
		f.bufferSyncPending = false
		return
	}
	works := make([]comm.Work, len(buffers))
	for i, b := range buffers {
		works[i] = f.pg.Broadcast(b.Data.Data(), 0)
	}
	if err := comm.WaitAll(works...); err != nil {
		f.deferred = fmt.Errorf("broadcasting buffers: %w", err)
		return
	}
	f.bufferSyncPending = false
}

// takeDeferred returns and clears the recorded failure.
func (f *FSDP) takeDeferred() error {
	err := f.deferred
	f.deferred = nil
	return err
}

// abandon is how Backward leaves a failed step: no gather stays in
// flight — each is waited out and its result discarded with the rest —
// every gathered ZeRO-3 bucket is dropped, so the residency accounting
// is back at the shards and nothing stale is taken for gathered should
// the caller go on, and every gradient is cleared: one that was born in
// its slot views a transient flat the engine has handed back to the
// pool or is about to drop. It returns err.
func (f *FSDP) abandon(err error) error {
	_ = f.drain() // the step already failed with err; a second failure adds nothing
	f.shardAll()
	for _, p := range f.params {
		p.ZeroGrad()
	}
	return err
}

// autogradHook fires after a parameter's gradient is fully
// accumulated: copy it into the bucket unless the backward kernel wrote
// it there (the slot is the gradient's destination), mark it ready (the
// engine launches the sharded reduce over the in-order prefix), and —
// under ZeRO3 — free the bucket's parameters once the last member
// gradient is in, since no remaining backward op can read them.
func (f *FSDP) autogradHook(idx int) {
	f.engine.CopyIn(idx, f.params[idx].Grad.Data())
	f.engine.MarkReady(idx)
	if f.opts.Strategy == ZeRO3 {
		b := f.assign.BucketOf[idx]
		f.remaining[b]--
		if f.remaining[b] == 0 {
			f.freeBucket(b)
		}
	}
}

// Backward runs autograd from loss, then finishes the fused
// reduce-and-step: waits for the sharded reductions bucket by bucket,
// applies the momentum update to each owned chunk
// (optim.ShardedMomentumStep — SGD's exact operation sequence), and
// publishes updated parameters (ZeRO2 AllGathers them now; ZeRO3
// leaves them sharded for the next forward's gathers). Gradients are
// consumed by the step and cleared.
func (f *FSDP) Backward(loss *autograd.Variable) error {
	if err := f.takeDeferred(); err != nil {
		return f.abandon(fmt.Errorf("fsdp: forward: %w", err))
	}
	f.cursor = 0
	autograd.Backward(loss, nil)
	if err := f.takeDeferred(); err != nil {
		return f.abandon(fmt.Errorf("fsdp: backward: %w", err))
	}
	if f.engine.Launched() < f.engine.NumBuckets() {
		var missing []string
		for _, members := range f.assign.Buckets[f.engine.Launched():] {
			for _, idx := range members {
				if f.params[idx].Grad == nil {
					missing = append(missing, f.params[idx].Name)
				}
			}
		}
		return f.abandon(fmt.Errorf(
			"fsdp: backward pass finished with %d bucket(s) incomplete; parameters %s received no gradient — fsdp requires every parameter to participate in every iteration",
			f.engine.NumBuckets()-f.engine.Launched(), strings.Join(missing, ", ")))
	}
	// Every parameter has its gradient, so every unit's backward ran and
	// waited for its buckets; the drain makes "no gather is reading the
	// owned chunks the optimizer is about to write" hold by construction.
	if err := f.drain(); err != nil {
		return f.abandon(fmt.Errorf("fsdp: backward: %w", err))
	}
	err := f.engine.WaitAll(func(bucket int, flat []float32) error {
		lo, hi := f.ownedLo[bucket], f.ownedHi[bucket]
		optim.ShardedMomentumStep(f.flats[bucket][lo:hi], flat[lo:hi], f.velocity[bucket], f.opts.LR, f.opts.Momentum, 0)
		if f.opts.Strategy == ZeRO3 {
			return nil
		}
		f.stats.Gathers++
		if err := f.sg.AllGatherV(f.flats[bucket]).Wait(); err != nil {
			return fmt.Errorf("fsdp: gathering updated parameters for bucket %d: %w", bucket, err)
		}
		return nil
	})
	if err != nil {
		return f.abandon(err)
	}
	for _, p := range f.params {
		p.ZeroGrad()
	}
	f.bufferSyncPending = len(f.module.Buffers()) > 0
	return nil
}

// Materialize gathers the full parameter set into the model's tensors
// (a per-bucket AllGatherV under ZeRO3; a no-op otherwise). All ranks
// must call it at the same point. Use it before reading parameters for
// evaluation or checkpointing; the next Forward gathers nothing it
// still holds and re-frees on schedule.
func (f *FSDP) Materialize() error {
	for b := range f.flats {
		f.launchGather(b)
	}
	if err := f.drain(); err != nil {
		return fmt.Errorf("fsdp: %w", err)
	}
	return nil
}

// Step is a no-op: Backward already applied the fused sharded update.
func (f *FSDP) Step() {}

// HoldsFullState is false under both strategies: optimizer state is
// sharded even where parameters are not, so a lost rank's momentum
// chunk exists nowhere else.
func (f *FSDP) HoldsFullState() bool { return false }

// CaptureState returns the full momentum state in parameter order (the
// layout optim.SGD would hold for the same model) and this rank's
// error-feedback residuals — a collective: every rank contributes its
// owned momentum chunks via AllGatherV, so all ranks must call it
// together, and a peer dying mid-gather surfaces as the error. The
// residuals are this rank's own quantization errors — per-rank state,
// not replicated state.
func (f *FSDP) CaptureState() (replica.State, error) {
	if err := f.drain(); err != nil {
		return replica.State{}, fmt.Errorf("fsdp: %w", err)
	}
	out := make([]float32, f.total)
	for b := range f.assign.Buckets {
		vflat := make([]float32, f.assign.BucketElems[b])
		copy(vflat[f.ownedLo[b]:f.ownedHi[b]], f.velocity[b])
		if err := f.sg.AllGatherV(vflat).Wait(); err != nil {
			return replica.State{}, fmt.Errorf("fsdp: gathering optimizer state: %w", err)
		}
		// Scatter bucket layout back to model order.
		for _, idx := range f.assign.Buckets[b] {
			off, mo := f.assign.OffsetOf[idx], f.offsets[idx]
			copy(out[mo:mo+f.sizes[idx]], vflat[off:off+f.sizes[idx]])
		}
	}
	return replica.State{Optimizer: out, Residuals: f.engine.ResidualState()}, nil
}

// InstallState adopts a full momentum vector (CaptureState's layout),
// slicing out this rank's owned chunks, and — with a wire codec — a
// residual vector. Purely local; an empty vector leaves that part of
// the state as it is.
func (f *FSDP) InstallState(st replica.State) error {
	if len(st.Optimizer) > 0 {
		if len(st.Optimizer) != f.total {
			return fmt.Errorf("fsdp: optimizer state has %d elements, expected %d", len(st.Optimizer), f.total)
		}
		for b := range f.assign.Buckets {
			vflat := make([]float32, f.assign.BucketElems[b])
			for _, idx := range f.assign.Buckets[b] {
				off, mo := f.assign.OffsetOf[idx], f.offsets[idx]
				copy(vflat[off:off+f.sizes[idx]], st.Optimizer[mo:mo+f.sizes[idx]])
			}
			copy(f.velocity[b], vflat[f.ownedLo[b]:f.ownedHi[b]])
		}
	}
	if len(st.Residuals) == 0 {
		return nil
	}
	if f.codec == nil {
		return errors.New("fsdp: residual state offered but no wire codec is configured")
	}
	return f.engine.SetResidualState(st.Residuals)
}

// Rebind rebuilds the shard layout over a new process group — the
// elastic world-reconfiguration hook. The caller must have restored
// FULL parameters into the model tensors first and installs full
// optimizer state (InstallState) after this call: a world change moves
// chunk boundaries, so shards are re-derived from full state, which is
// exactly what the checkpoint re-sharding read path provides.
func (f *FSDP) Rebind(pg comm.ProcessGroup) error {
	sg, ok := pg.(comm.ShardedGroup)
	if !ok {
		return errors.New("fsdp: process group does not support the sharded collectives")
	}
	assign, err := reduce.AssignBuckets(f.sizes, f.opts.BucketCapBytes, 4, reduce.ReverseOrder(len(f.params)))
	if err != nil {
		return err
	}
	_ = f.drain() // the outgoing group's failures are why the caller is here
	f.pg = pg
	f.sg = sg
	f.installShards(assign)
	f.stats.OptimizerBytes = f.optimizerBytes()
	f.stats.ShardParamBytes = f.shardParamBytes()
	f.residentParam = f.stats.FullParamBytes // caller restored full params
	f.shardAll()
	f.mapUnits()
	f.bufferSyncPending = false
	f.notePeak()
	return nil
}

var _ replica.Replica = (*FSDP)(nil)
