package ddp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/reduce"
	"repro/internal/tensor"
)

// DefaultBucketCapBytes is reduce.DefaultBucketCapBytes, the paper's
// 25MB bucket_cap_mb default.
const DefaultBucketCapBytes = reduce.DefaultBucketCapBytes

// Options are the configurable knobs of Section 4.1.
type Options struct {
	// BucketCapBytes bounds each gradient bucket (bucket_cap_mb).
	// Zero selects DefaultBucketCapBytes; negative values mean one
	// bucket per parameter (the paper's "0MB" baseline).
	//
	// The cap also steers the collective layer's comm.Auto algorithm
	// selection: DDP itself never picks an AllReduce algorithm — it
	// passes each bucket to the ProcessGroup it was handed — so with a
	// comm.Auto group, big buckets ride the topology-aware
	// hierarchical/ring path while the trailing small bucket takes the
	// low-latency tree path, per bucket, with no DDP involvement.
	BucketCapBytes int
	// FindUnusedParameters enables the autograd-graph traversal and
	// bitmap AllReduce that let DDP cope with iterations touching only
	// a sub-graph (Fig 3(b), Section 3.2.3). It costs one extra
	// AllReduce per iteration, so it is off by default, exactly as in
	// PyTorch.
	FindUnusedParameters bool
	// NewCodec optionally compresses bucket gradients on the wire
	// (Section 6.2.3 extension). DDP keeps ONE instance and routes
	// buckets through comm.CompressedAllReduce — real bytes on the byte
	// lanes, or comm.ErrCompressionUnsupported from the first Backward
	// when the process group cannot carry them — with error-feedback
	// residuals owned by the reduction engine and keyed by parameter
	// identity, so they survive the Section 6.2.1 bucket rebuild and
	// SetProcessGroup instead of silently resetting.
	NewCodec func() comm.Codec
	// SkipInitialBroadcast suppresses the constructor's rank-0
	// broadcast of parameters and buffers. Only safe when replica
	// alignment is guaranteed externally — the elastic agent sets it
	// because state is synchronized from the most advanced survivor
	// (which need not be rank 0) before the DDP wrapper is built, and
	// ranks that merely swap process groups submit no constructor
	// collectives for a fresh joiner's broadcast to pair with.
	SkipInitialBroadcast bool
	// AutoRebuildBuckets enables the gradient-order-prediction
	// improvement of Section 6.2.1: the reducer traces the order in
	// which gradients actually became ready during the first
	// synchronized backward pass, and before the next synchronized
	// forward pass rebuilds the buckets to follow that order. Rank 0's
	// observed order is broadcast so all ranks agree even if their local
	// arrival orders differed (the Fig 3(a) hazard applied to
	// rebuilding). Rebuilding happens once — the paper notes
	// re-allocation is expensive and should be infrequent.
	AutoRebuildBuckets bool
}

// DDP wraps an nn.Module and transparently synchronizes gradients
// across the process group during the backward pass, exactly as
// torch.nn.parallel.DistributedDataParallel wraps a local model. It is
// a thin client of the reduce.Engine: DDP owns the autograd hook
// wiring, unused-parameter tracking, and buffer broadcasts, while the
// engine owns buckets, launch ordering, and error-feedback residuals;
// the collective DDP plugs in is a full AllReduce — every rank keeps
// every averaged gradient, the replicated data parallelism of the
// paper, as opposed to internal/fsdp's sharded variants on the same
// engine.
type DDP struct {
	module nn.Module
	pg     comm.ProcessGroup
	opts   Options

	params []*nn.Parameter
	sizes  []int // element counts, model order
	engine *reduce.Engine
	// views[i] is parameter i's slot in the engine's bucket buffer as a
	// tensor of the parameter's shape, and the parameter's registered
	// gradient destination. After a synchronized backward it IS
	// params[i].Grad: the backward kernel wrote the gradient there (or
	// the hook copied it in, when it could not), AllReduce averages it
	// in place, and the optimizer reads it there. Rebuilt with every
	// bucket assignment.
	views []*tensor.Tensor
	codec comm.Codec // nil without compression; residual state lives in the engine

	// Per-iteration reducer state.
	noSync           bool
	syncThisBackward bool

	// Unused-parameter tracking (accumulates across no_sync iterations).
	usedLocally  []bool
	bitmap       []float32
	bitmapWork   comm.Work
	globallyUsed []bool

	// Buffer handling: sync pending means the next synchronized forward
	// must broadcast buffers from rank 0 first (Section 4.1).
	bufferSyncPending bool
	// deferred records a collective failure hit in Forward, which has no
	// error return — the buffer or traced-order broadcast, when a peer
	// died since the last backward; Backward surfaces it instead of
	// running.
	deferred error

	// Gradient-order tracing (Section 6.2.1): rebuildPending means the
	// next synchronized forward starts by rebuilding buckets from the
	// traced order; rebuilt records that the one-shot rebuild happened.
	rebuildPending bool
	rebuilt        bool
}

// New wraps module for distributed data parallel training over pg.
// Like the PyTorch constructor it broadcasts the model state (parameters
// and buffers) from rank 0 so all replicas start identically, builds the
// parameter-to-bucket mapping in reverse Parameters() order, and
// installs one autograd post-hook per parameter (Algorithm 1).
func New(module nn.Module, pg comm.ProcessGroup, opts Options) (*DDP, error) {
	if opts.BucketCapBytes == 0 {
		opts.BucketCapBytes = DefaultBucketCapBytes
	}
	d := &DDP{module: module, pg: pg, opts: opts, params: module.Parameters()}
	if len(d.params) == 0 {
		return nil, errors.New("ddp: module has no parameters")
	}
	d.sizes = make([]int, len(d.params))
	for i, p := range d.params {
		d.sizes[i] = p.Value.Size()
	}
	if opts.NewCodec != nil {
		d.codec = opts.NewCodec()
	}
	engine, err := reduce.NewEngine(reduce.Config{
		Sizes:          d.sizes,
		Launch:         d.launchBucket,
		TrackResiduals: d.codec != nil,
		ObserveReduce:  func(dur time.Duration) { mBucketReduceDur.Observe(dur.Seconds()) },
	})
	if err != nil {
		return nil, err
	}
	d.engine = engine

	// Align replicas: broadcast parameters and buffers from rank 0.
	if !opts.SkipInitialBroadcast {
		var works []comm.Work
		for _, p := range d.params {
			works = append(works, pg.Broadcast(p.Value.Data(), 0))
		}
		for _, b := range module.Buffers() {
			works = append(works, pg.Broadcast(b.Data.Data(), 0))
		}
		if err := comm.WaitAll(works...); err != nil {
			return nil, fmt.Errorf("ddp: broadcasting initial state: %w", err)
		}
	}

	assign, err := AssignBuckets(d.sizes, opts.BucketCapBytes, 4, ReverseOrder(len(d.params)))
	if err != nil {
		return nil, err
	}
	d.installAssignment(assign)

	d.usedLocally = make([]bool, len(d.params))
	d.bitmap = make([]float32, len(d.params))
	d.globallyUsed = make([]bool, len(d.params))

	for i, p := range d.params {
		idx := i
		p.RegisterPostAccumulateHook(func(*autograd.Variable) { d.autogradHook(idx) })
	}
	return d, nil
}

// launchBucket is the reduce.Launcher DDP plugs into its engine: a
// full AllReduce per bucket, through the codec's byte lanes when one is
// configured (this bucket's error-feedback residuals are updated during
// execution — they are only read back at the next rebuild or state
// sync, both of which happen after Wait). A nil codec is a plain
// AllReduce.
func (d *DDP) launchBucket(bucket int, flat, resFlat []float32) comm.Work {
	return comm.CompressedAllReduce(d.pg, flat, comm.Avg, d.codec, resFlat)
}

// installAssignment hands the engine a new assignment (the engine
// carries error-feedback residuals across the swap) and rebuilds the
// gradient views — registering each as its parameter's gradient
// destination — for the new layout. A Grad still viewing the old layout keeps its values and its
// storage; the next synchronized hook copies it into the new slot like
// any other gradient that is not yet in place.
func (d *DDP) installAssignment(assign *Assignment) {
	d.engine.Install(assign)
	d.views = make([]*tensor.Tensor, len(d.params))
	for i, p := range d.params {
		view := tensor.FromSlice(d.engine.Slot(i), p.Value.Shape()...)
		d.views[i] = view
		p.SetGradDestination(func() *tensor.Tensor { return view })
	}
}

// Module returns the wrapped local model.
func (d *DDP) Module() nn.Module { return d.module }

// ProcessGroup returns the communication backend currently in use.
func (d *DDP) ProcessGroup() comm.ProcessGroup { return d.pg }

// SetProcessGroup swaps in a freshly built communication backend — the
// elastic world-reconfiguration hook (paper Section 7's future
// direction). The caller is responsible for tearing down the old group
// and for re-synchronizing model/optimizer state across the new
// membership BEFORE the next Forward (elastic.SyncState does both
// broadcasts). Reducer state is reset and the bucket assignment
// reverts to the canonical reverse-registration order, so ranks that
// joined at different generations agree on the AllReduce schedule; the
// one-shot trace rebuild of Section 6.2.1 re-arms and will re-run
// consistently on the new group.
func (d *DDP) SetProcessGroup(pg comm.ProcessGroup) error {
	assign, err := AssignBuckets(d.sizes, d.opts.BucketCapBytes, 4, ReverseOrder(len(d.params)))
	if err != nil {
		return err
	}
	d.pg = pg
	d.installAssignment(assign)
	d.engine.Reset()
	d.noSync = false
	d.syncThisBackward = false
	d.bitmapWork = nil
	for i := range d.usedLocally {
		d.usedLocally[i] = false
	}
	// State was just re-synchronized by the caller; no buffer broadcast
	// is pending until the next synchronized backward completes.
	d.bufferSyncPending = false
	d.rebuildPending = false
	d.rebuilt = false
	return nil
}

// Parameters exposes the wrapped model's parameters (for optimizers).
func (d *DDP) Parameters() []*nn.Parameter { return d.params }

// Buffers exposes the wrapped model's buffers.
func (d *DDP) Buffers() []*nn.Buffer { return d.module.Buffers() }

// SetTraining toggles the wrapped model's mode.
func (d *DDP) SetTraining(t bool) { d.module.SetTraining(t) }

// NumBuckets reports how many gradient buckets the current assignment
// uses.
func (d *DDP) NumBuckets() int { return d.engine.NumBuckets() }

// Assignment returns the current parameter-to-bucket mapping.
func (d *DDP) Assignment() *Assignment { return d.engine.Assignment() }

// NoSync runs fn with gradient synchronization disabled, the context
// manager of Section 3.2.4: backward passes inside fn accumulate
// gradients locally, and the first synchronized backward afterwards
// reduces the accumulated gradients in one shot.
func (d *DDP) NoSync(fn func() error) error {
	d.noSync = true
	defer func() { d.noSync = false }()
	return fn()
}

// Forward runs the wrapped model's forward pass, performing DDP's
// bookkeeping around it (Algorithm 1, Function forward): broadcasting
// buffers if the previous backward synchronized, resetting the reducer,
// and — with FindUnusedParameters — traversing the autograd graph from
// the output to proactively mark unused parameters as ready.
func (d *DDP) Forward(x *autograd.Variable) *autograd.Variable {
	d.syncThisBackward = !d.noSync
	d.deferred = nil
	if d.syncThisBackward {
		if d.rebuildPending {
			d.deferred = d.rebuildFromTracedOrder()
			d.rebuildPending = false
			d.rebuilt = true
		}
		if d.deferred == nil {
			d.deferred = d.broadcastBuffersIfPending()
		}
		d.engine.Reset()
		d.bitmapWork = nil
	}
	out := d.module.Forward(x)
	if d.opts.FindUnusedParameters {
		used := autograd.LeafSet(out)
		for i, p := range d.params {
			if used[p.Variable] {
				d.usedLocally[i] = true
			}
		}
		if d.syncThisBackward {
			// Launch the bitmap AllReduce now; it overlaps with the
			// backward pass and is consumed during finalization. Max
			// works as logical OR over {0,1}.
			for i := range d.bitmap {
				if d.usedLocally[i] {
					d.bitmap[i] = 1
				} else {
					d.bitmap[i] = 0
				}
			}
			d.bitmapWork = d.pg.AllReduce(d.bitmap, comm.Max)
			// Mark parameters outside this iteration's graph as ready so
			// their buckets do not wait forever (Fig 3(b) fix). A
			// parameter that accumulated gradients during earlier
			// no_sync iterations still contributes them here, even if
			// the current graph skips it; one without a gradient
			// contributes zeros. Grad itself stays out of the slot until
			// finalizeBackward knows the parameter is used somewhere: a
			// globally unused one must come out of this iteration
			// untouched, not averaged in place.
			for i, p := range d.params {
				if used[p.Variable] {
					continue
				}
				switch view := d.views[i]; {
				case p.Grad == nil:
					view.Zero()
				case p.Grad == view:
					p.Grad = view.Clone()
				default:
					view.CopyFrom(p.Grad)
				}
				d.engine.MarkReady(i)
			}
		}
	}
	return out
}

// Backward runs autograd from loss and, if this iteration synchronizes,
// finishes the gradient reduction: waits for all bucket AllReduces,
// after which every used parameter's .Grad — a view of its bucket slot
// — holds the averaged gradient, and resolves globally unused
// parameters. It replaces loss.backward() in the PyTorch API; the
// hook-driven overlap happens inside.
//
// The averaged .Grad is valid until the next synchronized Backward
// overwrites the slot (or accumulates into it, if the gradient was not
// zeroed in between); Clone it to keep a value across iterations.
//
// A collective that failed in Forward (a peer died since the last
// step) is returned here, before any gradient is computed.
func (d *DDP) Backward(loss *autograd.Variable) error {
	if err := d.deferred; err != nil {
		d.deferred = nil
		return fmt.Errorf("ddp: forward: %w", err)
	}
	autograd.Backward(loss, nil)
	if !d.syncThisBackward {
		return nil
	}
	return d.finalizeBackward()
}

// broadcastBuffersIfPending pushes rank 0's buffer values to all ranks
// before a synchronized forward pass, if the previous synchronized
// backward has happened since the last broadcast.
func (d *DDP) broadcastBuffersIfPending() error {
	if !d.bufferSyncPending {
		return nil
	}
	buffers := d.module.Buffers()
	if len(buffers) == 0 {
		d.bufferSyncPending = false
		return nil
	}
	works := make([]comm.Work, len(buffers))
	for i, b := range buffers {
		works[i] = d.pg.Broadcast(b.Data.Data(), 0)
	}
	// Buffers are read by the imminent forward pass; block here.
	if err := comm.WaitAll(works...); err != nil {
		return fmt.Errorf("broadcasting buffers: %w", err)
	}
	d.bufferSyncPending = false
	return nil
}

// autogradHook is Algorithm 1's autograd_hook: fired by the engine after
// a parameter's gradient is fully accumulated. In no_sync iterations it
// does nothing (hooks disabled); otherwise it makes sure the gradient
// stands in its bucket slot and the slot is the parameter's Grad, and
// marks the parameter ready. Normally there is nothing to do: the slot
// is the parameter's gradient destination, so the backward kernel wrote
// the gradient there and autograd installed the view as Grad (or
// accumulated into last iteration's average in place, because nothing
// zeroed it). The copy is the fallback for a gradient that could not be
// born in place: one accumulated before this pass (no_sync) or over
// several uses of the parameter, one produced by an op that allocates
// its own result, or a Grad still viewing a replaced bucket layout.
func (d *DDP) autogradHook(idx int) {
	if !d.syncThisBackward {
		return
	}
	if p, view := d.params[idx], d.views[idx]; p.Grad != view {
		view.CopyFrom(p.Grad)
		p.Grad = view
	}
	d.engine.MarkReady(idx)
}

// finalizeBackward is the finishing step Algorithm 1 leaves implicit:
// wait for outstanding AllReduces, which average every Grad in place.
func (d *DDP) finalizeBackward() error {
	// Detect the Fig 3(b) hang instead of reproducing it: if some bucket
	// never became ready, parameters were skipped by this iteration's
	// graph while FindUnusedParameters was off.
	assign := d.engine.Assignment()
	if d.engine.Launched() < d.engine.NumBuckets() {
		var missing []string
		for _, members := range assign.Buckets[d.engine.Launched():] {
			for _, idx := range members {
				if d.params[idx].Grad == nil {
					missing = append(missing, d.params[idx].Name)
				}
			}
		}
		return fmt.Errorf(
			"ddp: backward pass finished with %d bucket(s) incomplete; parameters %s received no gradient — if the forward pass uses only a sub-graph, construct DDP with FindUnusedParameters (paper Fig 3(b))",
			d.engine.NumBuckets()-d.engine.Launched(), strings.Join(missing, ", "))
	}

	// Resolve globally unused parameters from the bitmap AllReduce.
	trackUnused := d.opts.FindUnusedParameters
	if trackUnused {
		if err := d.bitmapWork.Wait(); err != nil {
			return fmt.Errorf("ddp: unused-parameter bitmap AllReduce: %w", err)
		}
		for i, v := range d.bitmap {
			d.globallyUsed[i] = v > 0
		}
	}

	if err := d.engine.WaitAll(nil); err != nil {
		return fmt.Errorf("ddp: %w", err)
	}
	if trackUnused {
		// Parameters this rank's graph skipped had no hook to point
		// their Grad at the average. Globally unused ones keep .Grad
		// intact (nil, normally), so an optimizer that skips absent
		// gradients does not decay momentum for them (Section 3.2.3).
		for i, p := range d.params {
			if d.globallyUsed[i] {
				p.Grad = d.views[i]
			}
		}
	}

	// Next synchronized forward must re-broadcast buffers; local unused
	// tracking restarts.
	d.bufferSyncPending = len(d.module.Buffers()) > 0
	for i := range d.usedLocally {
		d.usedLocally[i] = false
	}
	if d.opts.AutoRebuildBuckets && !d.rebuilt && len(d.engine.ObservedReady()) == len(d.params) {
		d.rebuildPending = true
	}
	return nil
}

// rebuildFromTracedOrder implements the one-shot bucket rebuild of
// Section 6.2.1: rank 0 broadcasts its observed gradient-ready order
// (as float32 indices — exact for any realistic parameter count) and
// every rank repacks its buckets to follow it.
func (d *DDP) rebuildFromTracedOrder() error {
	buf := make([]float32, len(d.params))
	if d.pg.Rank() == 0 {
		for i, idx := range d.engine.ObservedReady() {
			buf[i] = float32(idx)
		}
	}
	if err := d.pg.Broadcast(buf, 0).Wait(); err != nil {
		return fmt.Errorf("broadcasting traced gradient order: %w", err)
	}
	order := make([]int, len(buf))
	for i, v := range buf {
		order[i] = int(v)
	}
	assign, err := AssignBuckets(d.sizes, d.opts.BucketCapBytes, 4, order)
	if err != nil {
		// A corrupt trace (should be impossible) falls back to the
		// existing assignment rather than killing training.
		return nil
	}
	d.installAssignment(assign)
	mBucketRebuilds.Inc()
	return nil
}

// Rebuilt reports whether the one-shot automatic bucket rebuild has
// already happened.
func (d *DDP) Rebuilt() bool { return d.rebuilt }

// ObservedReadyOrder returns the parameter indices in the order their
// gradients became ready during the most recent synchronized backward
// pass (the trace Section 6.2.1 proposes recording).
func (d *DDP) ObservedReadyOrder() []int {
	return d.engine.ObservedReady()
}

// ResidualState returns the error-feedback residuals flattened in
// parameter order — training state exactly like optimizer moments: a
// reconfigured world must carry the elected source's residuals to
// joiners (Replica.CaptureState hands elastic.SyncState this vector to
// broadcast) or the quantization error accumulated so far is lost at
// the worst possible moment. The layout depends only on the model, never on the bucket
// assignment or world size, so it re-shards trivially. Empty when no
// wire codec is configured. Do not call between Forward and Backward —
// buckets may be mid-flight.
func (d *DDP) ResidualState() []float32 {
	return d.engine.ResidualState()
}

// SetResidualState installs residuals produced by ResidualState on
// another (or this) replica, scattering them into the current bucket
// layout. Like ResidualState, it must not be called between Forward
// and Backward.
func (d *DDP) SetResidualState(flat []float32) error {
	if d.codec == nil {
		if len(flat) == 0 {
			return nil
		}
		return errors.New("ddp: residual state offered but no wire codec is configured")
	}
	return d.engine.SetResidualState(flat)
}

// RebuildBuckets implements the gradient-order-prediction improvement of
// Section 6.2.1: reassign parameters to buckets following the
// ready order observed in the last synchronized backward pass, so bucket
// boundaries match actual gradient production order. All ranks must call
// it at the same point (e.g. after the same iteration); it must not be
// called between Forward and Backward.
func (d *DDP) RebuildBuckets() error {
	trace := d.engine.ObservedReady()
	if len(trace) != len(d.params) {
		return fmt.Errorf("ddp: no complete ready-order trace (have %d of %d parameters); run a synchronized iteration first",
			len(trace), len(d.params))
	}
	assign, err := AssignBuckets(d.sizes, d.opts.BucketCapBytes, 4, trace)
	if err != nil {
		return err
	}
	d.installAssignment(assign)
	mBucketRebuilds.Inc()
	return nil
}
