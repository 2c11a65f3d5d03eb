package fsdp

import (
	"errors"
	"fmt"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/reduce"
	"repro/internal/replica"
	"repro/internal/tensor"
)

// Strategy names a preset of the one sharded mechanism: the memory
// budget of the step's plan (reduce.PlanStep), which is all that tells
// the presets apart; replica.Budget maps each, by the name String
// spells, to its budget. Under both, gradients, optimizer state and
// parameters are sharded, and each bucket's parameters are gathered for
// the forward and backward units that read them, as early and as rarely
// as the budget allows.
type Strategy int

const (
	// ZeRO2's budget is the whole model: each bucket is gathered once a
	// step, every gather launched ahead of the first unit, and freed at
	// its last backward read — ZeRO-2's traffic and peak, with only the
	// shards resident between steps.
	ZeRO2 Strategy = iota
	// ZeRO3's budget is reduce.PrefetchBudget: a bucket is gathered
	// shortly before the unit that reads it, and again for backward if
	// the plan dropped it in between.
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

// Options configures an FSDP wrapper.
type Options struct {
	// Strategy picks the preset budget: ZeRO2 (default) or ZeRO3.
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
	// error-feedback residuals carried by parameter identity. Compressed
	// runs are NOT bitwise-comparable to compressed DDP: DDP's
	// AllReduce re-quantizes the reduced bucket for its broadcast
	// stage, while the sharded reduce feeds the exact fold straight to
	// the local optimizer.
	NewCodec func() comm.Codec
	// SkipInitialBroadcast suppresses the constructor's rank-0
	// parameter/buffer broadcast, for callers that aligned replicas
	// externally (the elastic agent's checkpoint-restore path).
	SkipInitialBroadcast bool
}

// Stats is the memory/traffic accounting the sharding ablation and the
// CI memory gate read. All byte counts are float32 payload bytes.
type Stats struct {
	// FullParamBytes is the unsharded model size.
	FullParamBytes int
	// ShardParamBytes is the persistently resident parameter bytes per
	// rank: the owned chunks, under either preset.
	ShardParamBytes int
	// PeakParamBytes is the maximum transiently resident parameter
	// bytes observed: shards plus every bucket that is gathered or whose
	// gather is in flight. The step's plan (reduce.PlanStep) keeps the
	// gathered and in-flight buckets within its budget, what it holds
	// across the forward/backward turn included, so the peak stays
	// within BudgetParamBytes — the full model under ZeRO2, whose plan
	// gathers everything at once; a Forward that runs again without a
	// Backward in between may find more still gathered.
	PeakParamBytes int
	// BudgetParamBytes is that bound in this rank's bytes: the shards
	// plus what gathering buckets of the plan's Budget elements can add,
	// where a bucket of e elements adds at most (e+1)(w−1)/w of them at
	// world w (its chunks differ by at most one), and never more than
	// the full model.
	BudgetParamBytes int
	// OptimizerBytes is the momentum shard size — the state ZeRO
	// divides by world.
	OptimizerBytes int
	// ResidualBytes is the error-feedback residuals' size, held in the
	// engine's buckets for the layout's life (zero without a wire codec).
	ResidualBytes int
	// PeakGradBytes is the maximum gradient bucket bytes observed (the
	// engine's BucketBytes, residuals not counted); the engine's
	// transient gradient buffers release after every step.
	PeakGradBytes int
	// StagingBytes is the launch groups' staging (see group): allocated
	// once per install, held for the wrapper's life, and outside every
	// residency count above.
	StagingBytes int
	// Gathers counts bucket gathers — the buckets parameter AllGatherVs
	// fill, several to one collective for a launch group. A step gathers
	// as its plan says: every bucket once for forward, and again for
	// backward each bucket the plan drops before backward reads it (none
	// under ZeRO2).
	Gathers int
	// Reduces counts gradient ReduceScatterV launches.
	Reduces int
}

// FSDP wraps an nn.Module for sharded data parallel training with a
// fused sharded optimizer: Backward both reduces gradients and applies
// the momentum-SGD update, so there is no separate optimizer Step.
// Gradient bucketing, launch ordering, and residuals come from the
// same reduce.Engine DDP uses, and the lifecycle around it (alignment,
// layout, buffer re-sync, deferred failures) from the same replica.Core;
// only the launched collective and what is done with its result differ.
type FSDP struct {
	replica.Core
	units []nn.Module
	sg    comm.ShardedGroup
	opts  Options
	// budget is opts.Strategy's plan budget as a function of the layout.
	budget func(unitBuckets [][]int, size []int) int

	codec comm.Codec

	// Per-bucket shard layout: rank owns bucket chunk
	// comm.ChunkBounds(BucketElems[b], world, rank).
	ownedLo, ownedHi []int
	velocity         [][]float32 // owned momentum chunks
	// flats[b] is bucket b's parameter storage in the bucket's offset
	// layout, and every member parameter's Value is a view of its range
	// of it: a bucket gathered alone is gathered on the flat itself, and
	// the optimizer updates flats[b][ownedLo[b]:ownedHi[b]] in place.
	// The ranges outside the owned chunk are zero unless the bucket is
	// gathered.
	flats       [][]float32
	state       []residency
	unitBuckets [][]int // buckets each unit's parameters touch

	// The gather schedule (see mapUnits): the step's plan, a group per
	// entry of its Gathers, the next of them to launch, and the gathers
	// launched but not yet waited for, oldest first.
	plan     reduce.Plan
	groups   []group
	next     int
	inflight []gather

	residentParam int // current resident param bytes
	stats         Stats
}

// residency is where a bucket's non-owned parameter ranges stand.
type residency uint8

const (
	sharded   residency = iota // only the owned chunk is held; the rest is zero
	gathering                  // an AllGatherV into the flat is in flight
	gathered                   // the flat holds every rank's chunk
)

// group is one entry of the plan's Gathers, a launch group, and what
// running it takes: several buckets are gathered through a staging
// buffer (see restage) Elems long, allocated per install.
type group struct {
	*reduce.Collective
	staging []float32
	// launched holds the buckets of its latest launch: those that were
	// still sharded.
	launched []int
}

// gather is one launched AllGatherV: the group it runs, the staging it
// runs on (nil when it runs on its one bucket's flat), and its handle.
type gather struct {
	g       *group
	staging []float32
	work    comm.Work
}

// New wraps module for sharded training over pg, which must support
// the sharded collectives (mesh-backed groups do). Replicas are
// aligned by a rank-0 broadcast exactly like ddp.New, then every rank
// drops the parameter elements it does not own.
func New(module nn.Module, pg comm.ProcessGroup, opts Options) (*FSDP, error) {
	sg, ok := pg.(comm.ShardedGroup)
	if !ok {
		return nil, errors.New("fsdp: process group does not support the sharded collectives")
	}
	budget, err := replica.Budget(opts.Strategy.String())
	if err != nil {
		return nil, fmt.Errorf("fsdp: %w", err)
	}
	f := &FSDP{sg: sg, opts: opts, budget: budget}
	if opts.NewCodec != nil {
		f.codec = opts.NewCodec()
	}
	f.Core, err = replica.NewCore("fsdp", module, pg, opts.BucketCapBytes, !opts.SkipInitialBroadcast, reduce.Config{
		Launch:         f.launchBucket,
		TrackResiduals: f.codec != nil,
		Transient:      true,
	})
	if err != nil {
		return nil, err
	}
	f.stats.FullParamBytes = 4 * f.Assignment().ModelElems
	if f.codec != nil {
		f.stats.ResidualBytes = f.stats.FullParamBytes
	}
	for i, p := range f.Parameters() {
		idx, shape := i, p.Value.Shape()
		p.RegisterPostAccumulateHook(func(*autograd.Variable) { f.autogradHook(idx) })
		// The gradient's destination is its slot in the engine's
		// transient bucket flat, looked up when backward asks: that call
		// is what draws the flat from the pool, at the bucket's first
		// gradient as before.
		p.SetGradDestination(func() *tensor.Tensor { return tensor.FromSlice(f.Engine().Slot(idx), shape...) })
	}
	if err := f.installShards(); err != nil {
		return nil, err
	}
	return f, nil
}

// installShards (re)builds the shard layout derived from the engine's
// bucket layout: owned chunk bounds, momentum shards, and the
// per-bucket parameter flats, which take over the parameters' current
// (full) values and become their storage. The owned chunks' bytes are
// both the persistent parameter shards and the momentum shards. Then it
// drops the rest, restarting the peak residency there, and plans the
// step (mapUnits).
func (f *FSDP) installShards() error {
	assign := f.Assignment()
	world := f.ProcessGroup().Size()
	rank := f.ProcessGroup().Rank()
	nb := assign.NumBuckets()
	f.ownedLo = make([]int, nb)
	f.ownedHi = make([]int, nb)
	f.velocity = make([][]float32, nb)
	f.flats = make([][]float32, nb)
	f.state = make([]residency, nb)
	f.inflight = make([]gather, 0, nb)
	f.stats.ShardParamBytes = 0
	for b, members := range assign.Buckets {
		lo, hi := comm.ChunkBounds(assign.BucketElems[b], world, rank)
		f.ownedLo[b], f.ownedHi[b] = lo, hi
		f.stats.ShardParamBytes += 4 * (hi - lo)
		f.velocity[b] = make([]float32, hi-lo)
		f.flats[b] = make([]float32, assign.BucketElems[b])
		f.state[b] = gathered
		for _, idx := range members {
			p, off := f.Parameters()[idx], assign.OffsetOf[idx]
			view := f.flats[b][off : off+p.Value.Size()]
			copy(view, p.Value.Data())
			p.Value = tensor.FromSlice(view, p.Value.Shape()...)
		}
	}
	f.stats.OptimizerBytes = f.stats.ShardParamBytes
	f.residentParam = f.stats.FullParamBytes // params start resident
	f.shardAll()
	f.stats.PeakParamBytes = f.residentParam
	return f.mapUnits()
}

// shardAll drops every bucket's non-owned parameter ranges — the step
// from "full parameters are in the model's tensors" (after
// the constructor's broadcast, or a caller's restore ahead of Rebind) to
// the steady sharded state.
func (f *FSDP) shardAll() {
	for b := range f.flats {
		f.freeBucket(b)
	}
}

// mapUnits plans the step over the module's units (replica.Units)
// within the preset's budget (reduce.PlanStep): a group with its staging
// per entry of Gathers, and the bound on resident parameter bytes. It
// returns the Check error of the step it will run.
func (f *FSDP) mapUnits() error {
	units, counts := replica.Units(f.Module())
	f.units, f.unitBuckets = units, reduce.UnitBuckets(f.Assignment(), counts)
	elems, w := f.Assignment().BucketElems, f.ProcessGroup().Size()
	f.plan = reduce.PlanStep(f.unitBuckets, elems, f.budget(f.unitBuckets, elems), w)
	if err := reduce.Schedule(f.Assignment(), f.unitBuckets, &f.plan).Check(f.unitBuckets); err != nil {
		return fmt.Errorf("fsdp: %w", err)
	}
	f.stats.BudgetParamBytes = min(f.stats.FullParamBytes, f.stats.ShardParamBytes+4*((f.plan.Budget+f.NumBuckets())*(w-1)/w))

	// Staging: a buffer per group of several buckets, as all of them may
	// be in flight at once.
	f.groups = make([]group, len(f.plan.Gathers))
	f.stats.StagingBytes = 0
	for i := range f.groups {
		g := &f.groups[i]
		*g = group{Collective: &f.plan.Gathers[i], launched: make([]int, 0, len(f.plan.Gathers[i].Buckets))}
		if len(g.Buckets) > 1 {
			g.staging = make([]float32, g.Elems)
			f.stats.StagingBytes += 4 * g.Elems
		}
	}
	return nil
}

// launchBucket is the launcher fsdp plugs into the shared
// engine: a sharded reduce-scatter per bucket instead of DDP's full
// AllReduce. The flat ring schedule makes the owned chunk bitwise the
// AllReduce result.
func (f *FSDP) launchBucket(bucket int, flat, resFlat []float32) comm.Work {
	f.stats.Reduces++
	if g := f.Engine().BucketBytes(); g > f.stats.PeakGradBytes {
		f.stats.PeakGradBytes = g
	}
	if f.codec != nil {
		return f.sg.CompressedReduceScatterV(flat, comm.Avg, f.codec, resFlat)
	}
	return f.sg.ReduceScatterV(flat, comm.Avg)
}

// Stats returns the current memory/traffic accounting.
func (f *FSDP) Stats() Stats { return f.stats }

// ShardBytes returns the per-rank persistent parameter + optimizer
// state bytes — the quantity the CI memory gate bounds against DDP.
func (f *FSDP) ShardBytes() int { return f.stats.ShardParamBytes + f.stats.OptimizerBytes }

// nonOwnedBytes is what gathering bucket b adds to this rank's resident
// parameter bytes.
func (f *FSDP) nonOwnedBytes(b int) int {
	return 4 * (f.Assignment().BucketElems[b] - (f.ownedHi[b] - f.ownedLo[b]))
}

// freeBucket drops a gathered bucket's non-owned parameters:
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

// launch starts the one AllGatherV that fills g's sharded buckets from
// every owner's chunks: in place on the flat when one bucket is sharded,
// else on g's staging, this rank's chunks copied in first. The buckets
// count as resident from here on. A bucket that is already gathered (by
// Materialize, or by a Forward that ran without a Backward after it) or
// on its way is left alone.
func (f *FSDP) launch(g *group) {
	g.launched = g.launched[:0]
	for _, b := range g.Buckets {
		if f.state[b] == sharded {
			g.launched = append(g.launched, b)
			f.state[b] = gathering
			f.residentParam += f.nonOwnedBytes(b)
		}
	}
	switch len(g.launched) {
	case 0:
		return
	case 1:
		f.inflight = append(f.inflight, gather{g, nil, f.sg.AllGatherV(f.flats[g.launched[0]])})
	default:
		staging := g.staging[:reduce.GatherElems(f.Assignment().BucketElems, g.launched, f.ProcessGroup().Size())]
		f.restage(g.launched, staging, true)
		f.inflight = append(f.inflight, gather{g, staging, f.sg.AllGatherV(staging)})
	}
	f.stats.Gathers += len(g.launched)
	f.stats.PeakParamBytes = max(f.stats.PeakParamBytes, f.residentParam)
}

// restage copies between buckets' flats and their staging: this rank's
// owned chunks in, or every other rank's chunks out. Rank q's region is
// [qP, (q+1)P) of the staging, P its length over the world, and holds
// q's chunk of each bucket in turn, each at an offset of the buckets
// before it padded to their largest chunk. At world 1 the one rank owns
// every chunk, and nothing moves.
func (f *FSDP) restage(buckets []int, staging []float32, in bool) {
	w, rank := f.ProcessGroup().Size(), f.ProcessGroup().Rank()
	if w == 1 {
		return
	}
	p, off := len(staging)/w, 0
	for _, b := range buckets {
		n := f.Assignment().BucketElems[b]
		for q := range w {
			if (q == rank) != in {
				continue
			}
			lo, hi := comm.ChunkBounds(n, w, q)
			region := staging[q*p+off : q*p+off+hi-lo]
			if in {
				copy(region, f.flats[b][lo:hi])
			} else {
				copy(f.flats[b][lo:hi], region)
			}
		}
		off += (n + w - 1) / w
	}
}

// land waits for the oldest gather in flight and unstages what it
// fetched. A failed gather's partial result is discarded: every bucket
// it was to fill goes back to sharded.
func (f *FSDP) land() error {
	in := f.inflight[0]
	f.inflight = f.inflight[:copy(f.inflight, f.inflight[1:])]
	err, buckets := in.work.Wait(), in.g.launched
	for _, b := range buckets {
		f.state[b] = gathered
		if err != nil {
			f.freeBucket(b)
		}
	}
	if err != nil {
		return fmt.Errorf("gathering buckets %v parameters: %w", buckets, err)
	}
	if in.staging != nil {
		f.restage(buckets, in.staging, false)
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

// advance is all a visit does about gathers: it launches every entry of
// the plan's Gathers submitted by visit v — before waiting, so the
// process group's serial worker goes from one gather straight into the
// next while the unit computes — then lands every one v waits for.
// Launches happen here, on the training goroutine, in plan order, so
// every rank submits the same collectives in the same order. A failure is
// downgraded to the deferred error Backward reports: a gather can only
// fail when the process group broke (a peer died, the group was
// aborted), and the graph walk it interrupts runs inside interfaces with
// no error return. Once one is recorded nothing more is launched and the
// remaining units compute on zeroed parameters, keeping tensor shapes
// (and the caller's loss construction) intact while the iteration's
// results are doomed to be discarded.
func (f *FSDP) advance(v int) {
	for ; !f.Failed() && f.next < len(f.groups) && f.groups[f.next].Submit <= v; f.next++ {
		f.launch(&f.groups[f.next])
	}
	for len(f.inflight) > 0 && f.inflight[0].g.Wait <= v {
		f.Defer(f.land())
	}
}

// Forward runs the model's forward pass, walking the units through the
// step's plan: it advances the plan ahead of each unit's forward, puts
// the hook that advances it ahead of the unit's backward on the unit's
// output, and drops what the plan frees after the unit. What the plan
// holds stays gathered into backward, and a gather it launches for
// backward may still be in flight when Forward returns; a Forward that
// follows a Forward lands it first.
//
// No Variable the pass creates escapes except the return value: once a
// Backward over it returns nil, every intermediate's storage goes back
// to the buffer pool (replica.Core.ReleaseForward), and reading one
// afterwards panics. The return value, x and the parameters stay.
func (f *FSDP) Forward(x *autograd.Variable) *autograd.Variable {
	f.BeginForward(true, f.drain())
	f.next = 0
	last := 2*len(f.units) - 1
	out := f.Input(x)
	for u, unit := range f.units {
		f.advance(u)
		out = autograd.BackwardHook(unit.Forward(out), func() { f.advance(last - u) })
		for _, b := range f.plan.Free[u] {
			f.freeBucket(b)
		}
	}
	return f.EndForward(x, out)
}

// abandon is how Backward leaves a failed step: no gather stays in
// flight — each is waited out and its result discarded with the rest —
// every gathered bucket is dropped, so the residency accounting
// is back at the shards and nothing stale is taken for gathered should
// the caller go on, and every gradient is cleared: one that was born in
// its slot views a transient flat the engine has handed back to the
// pool or is about to drop. It returns err.
func (f *FSDP) abandon(err error) error {
	_ = f.drain() // the step already failed with err; a second failure adds nothing
	f.shardAll()
	for _, p := range f.Parameters() {
		p.ZeroGrad()
	}
	return err
}

// autogradHook fires after a parameter's gradient is fully
// accumulated: copy it into the bucket unless the backward kernel wrote
// it there (the slot is the gradient's destination), mark it ready (the
// engine launches the sharded reduce over the in-order prefix), and
// free the bucket's parameters once the engine reports the last member
// gradient in, since no remaining backward op can read them.
func (f *FSDP) autogradHook(idx int) {
	f.Engine().CopyIn(idx, f.Parameters()[idx].Grad.Data())
	if f.Engine().MarkReady(idx) {
		f.freeBucket(f.Assignment().BucketOf[idx])
	}
}

// Backward runs autograd from loss, then finishes the fused
// reduce-and-step: waits for the sharded reductions bucket by bucket,
// applies the momentum update to each owned chunk
// (optim.ShardedMomentumStep — SGD's exact operation sequence), and
// leaves the updated parameters sharded for the next forward's gathers.
// Gradients are consumed by the step and cleared.
func (f *FSDP) Backward(loss *autograd.Variable) error {
	if err := f.TakeDeferred("forward"); err != nil {
		return f.abandon(err)
	}
	autograd.Backward(loss, nil)
	if err := f.TakeDeferred("backward"); err != nil {
		return f.abandon(err)
	}
	if err := f.Unlaunched("fsdp requires every parameter to participate in every iteration"); err != nil {
		return f.abandon(err)
	}
	// Every parameter has its gradient, so every unit's backward ran and
	// waited for its buckets; the drain makes "no gather is reading the
	// owned chunks the optimizer is about to write" hold by construction.
	if err := f.drain(); err != nil {
		return f.abandon(fmt.Errorf("fsdp: backward: %w", err))
	}
	err := f.Engine().WaitAll(func(bucket int, flat []float32) error {
		lo, hi := f.ownedLo[bucket], f.ownedHi[bucket]
		optim.ShardedMomentumStep(f.flats[bucket][lo:hi], flat[lo:hi], f.velocity[bucket], f.opts.LR, f.opts.Momentum)
		return nil
	})
	if err != nil {
		return f.abandon(err)
	}
	for _, p := range f.Parameters() {
		p.ZeroGrad()
	}
	f.Synchronized()
	f.ReleaseForward()
	return nil
}

// Materialize gathers the full parameter set into the model's tensors
// once the gathers in flight have landed: the plan's Gathers in order,
// one AllGatherV each of its buckets not already gathered, under either
// preset (every bucket is in a forward gather): between steps only the
// shards are resident. All ranks must call it at the same point. Use it
// before reading parameters for evaluation or checkpointing; the next
// Forward gathers nothing it still holds and re-frees on schedule.
func (f *FSDP) Materialize() error {
	err := f.drain()
	if err == nil {
		for i := range f.groups {
			f.launch(&f.groups[i])
		}
		err = f.drain()
	}
	if err != nil {
		return fmt.Errorf("fsdp: %w", err)
	}
	return nil
}

// HoldsFullState is false: optimizer state and parameters are sharded
// under either preset, so a lost rank's momentum and parameter chunks
// exist nowhere else.
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
	assign := f.Assignment()
	out := make([]float32, assign.ModelElems)
	for b := range assign.Buckets {
		vflat := make([]float32, assign.BucketElems[b])
		copy(vflat[f.ownedLo[b]:f.ownedHi[b]], f.velocity[b])
		if err := f.sg.AllGatherV(vflat).Wait(); err != nil {
			return replica.State{}, fmt.Errorf("fsdp: gathering optimizer state: %w", err)
		}
		assign.ToModel(b, vflat, out)
	}
	return replica.State{Optimizer: out, Residuals: f.ResidualState()}, nil
}

// InstallState adopts a full momentum vector (CaptureState's layout),
// slicing out this rank's owned chunks, and — with a wire codec — a
// residual vector. Purely local; an empty vector leaves that part of
// the state as it is.
func (f *FSDP) InstallState(st replica.State) error {
	if len(st.Optimizer) > 0 {
		assign := f.Assignment()
		if len(st.Optimizer) != assign.ModelElems {
			return fmt.Errorf("fsdp: optimizer state has %d elements, expected %d", len(st.Optimizer), assign.ModelElems)
		}
		for b := range assign.Buckets {
			vflat := make([]float32, assign.BucketElems[b])
			assign.ToBucket(b, vflat, st.Optimizer)
			copy(f.velocity[b], vflat[f.ownedLo[b]:f.ownedHi[b]])
		}
	}
	if len(st.Residuals) == 0 {
		return nil
	}
	return f.SetResidualState(st.Residuals)
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
	_ = f.drain() // the outgoing group's failures are why the caller is here
	if err := f.Regroup(pg); err != nil {
		return err
	}
	f.sg = sg
	return f.installShards() // from the full parameters the caller restored
}

var _ replica.Replica = (*FSDP)(nil)
