// Package ddp implements DistributedDataParallel — the paper's core
// contribution (Sections 3.2 and 4.2): gradient bucketing, overlapping
// AllReduce with the backward pass, skipping synchronization (no_sync),
// and globally-unused-parameter detection, on top of the comm package's
// ProcessGroup API. The bucket machinery itself lives in
// internal/reduce, and the lifecycle around it (replica alignment,
// buffer re-sync, deferred forward failures, the bucket layout) in
// replica.Core, both shared with the sharded wrapper in internal/fsdp.
//
// Gradients are born in their bucket: each parameter's slot in the
// engine's flat bucket buffer is registered as its gradient destination
// (autograd.Variable.SetGradDestination), so the backward kernel that
// produces a weight gradient writes it there, autograd installs the
// slot's view as Grad, the AllReduce averages it in place and the
// optimizer reads it where it stands — Algorithm 1's copy into the
// bucket does not happen. The hook still copies a gradient that could
// not be written in place: one accumulated under no_sync or over
// several uses of a parameter, one from an op that allocates its own
// result, one a FindUnusedParameters forward has to stage. Which path a
// gradient takes follows from what the backward pass observes; there is
// no setting.
package ddp

import (
	"fmt"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/reduce"
	"repro/internal/replica"
	"repro/internal/tensor"
)

// Options are the configurable knobs of Section 4.1.
type Options struct {
	// BucketCapBytes bounds each gradient bucket (bucket_cap_mb).
	// Zero selects reduce.DefaultBucketCapBytes; negative values mean one
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
// a thin client of the reduce.Engine: replica.Core carries the
// lifecycle it shares with fsdp, DDP owns the autograd hook wiring and
// unused-parameter tracking, and the engine owns buckets, launch
// ordering, and error-feedback residuals; the collective DDP plugs in
// is a full AllReduce — every rank keeps every averaged gradient, the
// replicated data parallelism of the paper, as opposed to
// internal/fsdp's sharded variants on the same engine.
type DDP struct {
	replica.Core
	opts Options

	// views[i] is parameter i's slot in the engine's bucket buffer as a
	// tensor of the parameter's shape, and the parameter's registered
	// gradient destination. After a synchronized backward it IS
	// params[i].Grad: the backward kernel wrote the gradient there (or
	// the hook copied it in, when it could not), AllReduce averages it
	// in place, and the optimizer reads it there. Rebuilt with every
	// bucket layout.
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
	d := &DDP{opts: opts}
	if opts.NewCodec != nil {
		d.codec = opts.NewCodec()
	}
	var err error
	d.Core, err = replica.NewCore("ddp", module, pg, opts.BucketCapBytes, !opts.SkipInitialBroadcast, reduce.Config{
		Launch:         d.launchBucket,
		TrackResiduals: d.codec != nil,
		ObserveReduce:  func(dur time.Duration) { mBucketReduceDur.Observe(dur.Seconds()) },
	})
	if err != nil {
		return nil, err
	}
	d.installViews()

	n := len(d.Parameters())
	d.usedLocally = make([]bool, n)
	d.bitmap = make([]float32, n)
	d.globallyUsed = make([]bool, n)
	for i, p := range d.Parameters() {
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
	return comm.CompressedAllReduce(d.ProcessGroup(), flat, comm.Avg, d.codec, resFlat)
}

// installViews rebuilds the gradient views for the engine's current
// layout, registering each as its parameter's gradient destination. A
// Grad still viewing the old layout keeps its values and its storage;
// the next synchronized hook copies it into the new slot like any other
// gradient that is not yet in place.
func (d *DDP) installViews() {
	d.views = make([]*tensor.Tensor, len(d.Parameters()))
	for i, p := range d.Parameters() {
		view := tensor.FromSlice(d.Engine().Slot(i), p.Value.Shape()...)
		d.views[i] = view
		p.SetGradDestination(func() *tensor.Tensor { return view })
	}
}

// SetProcessGroup swaps in a freshly built communication backend — the
// elastic world-reconfiguration hook (paper Section 7's future
// direction). The caller is responsible for tearing down the old group
// and for re-synchronizing model/optimizer state across the new
// membership BEFORE the next Forward (elastic.SyncState does both
// broadcasts). Reducer state is reset and the bucket layout reverts to
// the canonical reverse-registration order, so ranks that joined at
// different generations agree on the AllReduce schedule; the one-shot
// trace rebuild of Section 6.2.1 re-arms and will re-run consistently
// on the new group.
func (d *DDP) SetProcessGroup(pg comm.ProcessGroup) error {
	if err := d.Regroup(pg); err != nil {
		return err
	}
	d.installViews()
	d.noSync, d.syncThisBackward, d.bitmapWork = false, false, nil
	clear(d.usedLocally)
	d.rebuildPending, d.rebuilt = false, false
	return nil
}

// SetTraining toggles the wrapped model's mode.
func (d *DDP) SetTraining(t bool) { d.Module().SetTraining(t) }

// NoSync runs fn with gradient synchronization disabled, the context
// manager of Section 3.2.4: an iteration whose Forward runs inside fn
// accumulates its gradients locally, and the first synchronized
// iteration afterwards reduces them in one shot. DDP decides at
// Forward, so fn must wrap the forward pass, as PyTorch's no_sync must.
func (d *DDP) NoSync(fn func() error) error {
	d.noSync = true
	defer func() { d.noSync = false }()
	return fn()
}

// Forward runs the wrapped model's forward pass, performing DDP's
// bookkeeping around it (Algorithm 1, Function forward): the one-shot
// traced rebuild when it is armed, the buffer broadcast and reducer
// reset of replica.Core.BeginForward, and — with FindUnusedParameters —
// traversing the autograd graph from the output to proactively mark
// unused parameters as ready.
//
// No Variable the pass creates escapes except the return value: once a
// Backward over it returns nil, every intermediate's storage goes back
// to the buffer pool (replica.Core.ReleaseForward), and reading one
// afterwards panics. The return value, x and the parameters stay.
func (d *DDP) Forward(x *autograd.Variable) *autograd.Variable {
	d.syncThisBackward = !d.noSync
	var err error
	if d.syncThisBackward && d.rebuildPending {
		err = d.rebuildFromTracedOrder()
		d.rebuildPending, d.rebuilt = false, true
	}
	d.BeginForward(d.syncThisBackward, err)
	out := d.Module().Forward(d.Input(x))
	if d.opts.FindUnusedParameters {
		used := autograd.LeafSet(out)
		for i, p := range d.Parameters() {
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
			d.bitmapWork = d.ProcessGroup().AllReduce(d.bitmap, comm.Max)
			// Mark parameters outside this iteration's graph as ready so
			// their buckets do not wait forever (Fig 3(b) fix). A
			// parameter that accumulated gradients during earlier
			// no_sync iterations still contributes them here, even if
			// the current graph skips it; one without a gradient
			// contributes zeros. Grad itself stays out of the slot until
			// finalizeBackward knows the parameter is used somewhere: a
			// globally unused one must come out of this iteration
			// untouched, not averaged in place.
			for i, p := range d.Parameters() {
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
				d.Engine().MarkReady(i)
			}
		}
	}
	return d.EndForward(x, out)
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
	if err := d.TakeDeferred("forward"); err != nil {
		return err
	}
	autograd.Backward(loss, nil)
	if d.syncThisBackward {
		if err := d.finalizeBackward(); err != nil {
			return err
		}
	}
	d.ReleaseForward()
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
	if p, view := d.Parameters()[idx], d.views[idx]; p.Grad != view {
		view.CopyFrom(p.Grad)
		p.Grad = view
	}
	d.Engine().MarkReady(idx)
}

// finalizeBackward is the finishing step Algorithm 1 leaves implicit:
// wait for outstanding AllReduces, which average every Grad in place.
func (d *DDP) finalizeBackward() error {
	// Some bucket never became ready: parameters were skipped by this
	// iteration's graph while FindUnusedParameters was off.
	if err := d.Unlaunched("if the forward pass uses only a sub-graph, construct DDP with FindUnusedParameters (paper Fig 3(b))"); err != nil {
		return err
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

	if err := d.Engine().WaitAll(nil); err != nil {
		return fmt.Errorf("ddp: %w", err)
	}
	if trackUnused {
		// Parameters this rank's graph skipped had no hook to point
		// their Grad at the average. Globally unused ones keep .Grad
		// intact (nil, normally), so an optimizer that skips absent
		// gradients does not decay momentum for them (Section 3.2.3).
		for i, p := range d.Parameters() {
			if d.globallyUsed[i] {
				p.Grad = d.views[i]
			}
		}
	}

	// Next synchronized forward must re-broadcast buffers; local unused
	// tracking restarts.
	d.Synchronized()
	clear(d.usedLocally)
	if d.opts.AutoRebuildBuckets && !d.rebuilt && len(d.Engine().ObservedReady()) == len(d.Parameters()) {
		d.rebuildPending = true
	}
	return nil
}

// rebuildFromTracedOrder implements the one-shot bucket rebuild of
// Section 6.2.1: rank 0 broadcasts its observed gradient-ready order
// (as float32 indices — exact for any realistic parameter count) and
// every rank repacks its buckets to follow it. Packing by each rank's
// own order instead would pair different parameters in one AllReduce
// wherever the ranks' graphs differ.
func (d *DDP) rebuildFromTracedOrder() error {
	buf := make([]float32, len(d.Parameters()))
	if d.ProcessGroup().Rank() == 0 {
		for i, idx := range d.Engine().ObservedReady() {
			buf[i] = float32(idx)
		}
	}
	if err := d.ProcessGroup().Broadcast(buf, 0).Wait(); err != nil {
		return fmt.Errorf("broadcasting traced gradient order: %w", err)
	}
	order := make([]int, len(buf))
	for i, v := range buf {
		order[i] = int(v)
	}
	if err := d.Relayout(order); err != nil {
		// A corrupt trace (should be impossible) falls back to the
		// existing layout rather than killing training.
		return nil
	}
	d.installViews()
	mBucketRebuilds.Inc()
	return nil
}

// Rebuilt reports whether the one-shot automatic bucket rebuild has
// already happened.
func (d *DDP) Rebuilt() bool { return d.rebuilt }
