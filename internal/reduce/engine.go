package reduce

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/buffer"
	"repro/internal/comm"
)

// Launcher starts the collective for one ready bucket and returns its
// async handle. flat is the bucket's gradient buffer; residual is the
// bucket's error-feedback buffer in the same layout, nil unless the
// engine was configured with TrackResiduals. The engine calls launchers
// for ready buckets strictly in bucket-index order — never bucket i+1
// before bucket i — so the collective sequence is identical on every
// rank regardless of local gradient arrival order (the Fig 3(a) fix).
type Launcher func(bucket int, flat, residual []float32) comm.Work

// Config parameterizes an Engine.
type Config struct {
	// Sizes holds each parameter's element count in model order. The
	// engine addresses parameters exclusively by index into this slice.
	Sizes []int
	// Launch starts the reduction collective for a ready bucket
	// (required). DDP passes an AllReduce closure, fsdp a ReduceScatterV
	// closure.
	Launch Launcher
	// TrackResiduals allocates the per-parameter error-feedback store
	// and per-bucket residual buffers for wire-codec compression. The
	// store is keyed by parameter identity, NOT bucket index, so bucket
	// rebuilds and process-group swaps re-map rather than drop the
	// accumulated quantization error.
	TrackResiduals bool
	// Transient makes bucket buffers per-iteration state: a bucket draws
	// its buffers from the buffer pool at its first slot write and
	// WaitAll hands them back once its consume has returned, so nothing
	// is held between iterations and nothing is allocated in a warm one.
	// The sharded wrappers set it to keep peak-memory accounting honest:
	// ZeRO's claim is about steady-state bytes, and permanently resident
	// full-size gradient buffers would silently falsify it. Residuals
	// still survive — they are flushed to the per-parameter store before
	// the buffers are handed back.
	Transient bool
	// ObserveReduce, when non-nil, receives each bucket's
	// launch-to-completion latency as WaitAll observes it done — the
	// overlap window of Section 3.2.3.
	ObserveReduce func(time.Duration)
}

// Engine is the reduction pipeline shared by ddp and fsdp: bucket
// runtime state, pending counts, the in-order launch prefix, and the
// error-feedback residual store. It is not goroutine-safe; callers
// drive it from the (single-threaded) autograd backward pass.
type Engine struct {
	cfg    Config
	assign *Assignment
	bucket []*bucketState

	// residuals holds each parameter's error-feedback accumulator in
	// model order. Working copies live in the buckets' resFlat buffers
	// between installs; FlushResiduals folds them back here.
	residuals [][]float32

	nextToLaunch  int
	observedReady []int // param indices in ready order
}

// bucketState is the runtime companion of one Assignment bucket
// (reducer.cpp's Bucket).
type bucketState struct {
	members []int // param indices
	flat    []float32
	resFlat []float32 // error-feedback residuals, same layout as flat
	pending int       // member gradients outstanding; 0 means ready
	// launchedAt stamps the collective launch for the
	// backward-to-reduce latency observation.
	launchedAt time.Time
	work       comm.Work
}

// NewEngine builds an engine; Install must be called before the first
// iteration.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Launch == nil {
		return nil, errors.New("reduce: Config.Launch is required")
	}
	if len(cfg.Sizes) == 0 {
		return nil, errors.New("reduce: no parameters")
	}
	e := &Engine{cfg: cfg}
	if cfg.TrackResiduals {
		e.residuals = make([][]float32, len(cfg.Sizes))
		for i, size := range cfg.Sizes {
			e.residuals[i] = make([]float32, size)
		}
	}
	return e, nil
}

// Install (re)builds bucket runtime state for an assignment.
// Error-feedback residuals are carried, not dropped: the outgoing
// layout's working copies are folded into the per-parameter store
// first, then scattered into the new layout — the fix for the residual
// reset that used to happen on every Section 6.2.1 rebuild and every
// elastic process-group swap, exactly when accumulated error matters
// most.
func (e *Engine) Install(assign *Assignment) {
	e.FlushResiduals()
	e.assign, e.nextToLaunch = assign, 0
	e.bucket = make([]*bucketState, assign.NumBuckets())
	for b, members := range assign.Buckets {
		bs := &bucketState{members: members}
		if !e.cfg.Transient {
			bs.flat = make([]float32, assign.BucketElems[b])
			if e.cfg.TrackResiduals {
				bs.resFlat = make([]float32, assign.BucketElems[b])
				e.scatterResiduals(bs, members)
			}
		}
		e.bucket[b] = bs
	}
}

// acquire draws a Transient bucket's buffers from the buffer pool.
// Their contents are whatever the last user left (NaN under the race
// detector): every slot is written in full before its bucket launches,
// and the residual buffer is filled from the per-parameter store here.
func (e *Engine) acquire(b int) {
	bs := e.bucket[b]
	bs.flat = buffer.GetFloats(e.assign.BucketElems[b])
	if e.cfg.TrackResiduals {
		bs.resFlat = buffer.GetFloats(e.assign.BucketElems[b])
		e.scatterResiduals(bs, bs.members)
	}
}

// scatterResiduals copies the per-parameter store into a bucket's
// residual buffer under the current assignment.
func (e *Engine) scatterResiduals(bs *bucketState, members []int) {
	for _, idx := range members {
		off := e.assign.OffsetOf[idx]
		copy(bs.resFlat[off:off+e.cfg.Sizes[idx]], e.residuals[idx])
	}
}

// FlushResiduals folds the current bucket layout's residual buffers
// back into the per-parameter store. No-op without residual tracking,
// before the first Install, or for buckets a Transient engine holds no
// buffers for.
func (e *Engine) FlushResiduals() {
	if !e.cfg.TrackResiduals || e.assign == nil {
		return
	}
	for b, bs := range e.bucket {
		if bs.resFlat == nil {
			continue
		}
		for _, idx := range e.assign.Buckets[b] {
			off := e.assign.OffsetOf[idx]
			copy(e.residuals[idx], bs.resFlat[off:off+e.cfg.Sizes[idx]])
		}
	}
}

// Assignment returns the current parameter-to-bucket mapping.
func (e *Engine) Assignment() *Assignment { return e.assign }

// NumBuckets reports how many buckets the current assignment uses.
func (e *Engine) NumBuckets() int { return e.assign.NumBuckets() }

// Launched reports how many buckets have had their collective launched
// this iteration (the in-order prefix length).
func (e *Engine) Launched() int { return e.nextToLaunch }

// ObservedReady returns the parameter indices in the order their
// gradients became ready this iteration (the trace Section 6.2.1
// proposes recording).
func (e *Engine) ObservedReady() []int {
	return append([]int(nil), e.observedReady...)
}

// Reset replenishes per-bucket pending counts for a new synchronized
// iteration (Section 4.2: "In the next forward pass, DDP replenishes
// the pending gradient count"). Bucket buffers keep whatever the last
// iteration left in them: every slot is written in full — by its owner
// through Slot, or by CopyIn — before it is marked ready, so clearing
// them here would only be a second pass over memory. A Transient
// engine holds no buffers at this point unless the last iteration
// failed before WaitAll consumed every bucket; those are dropped for
// the garbage collector rather than handed back to the pool, because a
// collective nobody waited for may still be writing into them.
func (e *Engine) Reset() {
	for _, bs := range e.bucket {
		if e.cfg.Transient {
			bs.flat, bs.resFlat = nil, nil
		}
		bs.pending = len(bs.members)
		bs.work = nil
	}
	e.nextToLaunch = 0
	e.observedReady = e.observedReady[:0]
}

// Slot returns a parameter's region of its bucket's buffer: where its
// gradient must stand when the parameter is marked ready, and where the
// reduced gradient stands after WaitAll. The slice stays valid, and
// keeps its contents between iterations, until the next Install (for a
// Transient engine: from the bucket's first Slot call of an iteration
// until WaitAll releases the bucket) — which is what lets ddp and fsdp
// register it as the parameter's gradient destination, so the backward
// kernel writes the gradient here and Grad is a view of it.
func (e *Engine) Slot(idx int) []float32 {
	b := e.assign.BucketOf[idx]
	if e.bucket[b].flat == nil {
		e.acquire(b)
	}
	off := e.assign.OffsetOf[idx]
	return e.bucket[b].flat[off : off+e.cfg.Sizes[idx]]
}

// CopyIn makes a parameter's slot hold its gradient, for callers whose
// gradients live elsewhere (fsdp, whose bucket buffers are transient).
// A gradient that already is the slot — the backward kernel wrote it
// there — is not copied.
func (e *Engine) CopyIn(idx int, grad []float32) {
	slot := e.Slot(idx)
	if len(slot) > 0 && &slot[0] == &grad[0] {
		return
	}
	copy(slot, grad)
}

// MarkReady decrements the parameter's bucket pending count, launches
// the collective on the maximal in-order prefix of ready buckets (those
// below nextToLaunch are launched), and reports whether the parameter
// was its bucket's last member outstanding. Marking a parameter ready
// twice in one iteration panics — the caller's hook wiring double-fired.
func (e *Engine) MarkReady(idx int) bool {
	e.observedReady = append(e.observedReady, idx)
	bs := e.bucket[e.assign.BucketOf[idx]]
	if bs.pending <= 0 {
		panic(fmt.Sprintf("reduce: parameter %d marked ready twice in one iteration", idx))
	}
	if bs.pending--; bs.pending > 0 {
		return false
	}
	for ; e.nextToLaunch < len(e.bucket) && e.bucket[e.nextToLaunch].pending == 0; e.nextToLaunch++ {
		bs := e.bucket[e.nextToLaunch]
		bs.launchedAt = time.Now()
		bs.work = e.cfg.Launch(e.nextToLaunch, bs.flat, bs.resFlat)
	}
	return true
}

// WaitAll waits for every launched bucket's collective in bucket order
// and hands each reduced buffer to consume (the fused sharded optimizer
// step for fsdp; ddp passes nil, its gradients being views of the
// buffers already). The caller must
// have verified all buckets launched — waiting on an unlaunched bucket
// is a caller bug and errors out. A Transient engine hands each
// bucket's buffers back to the buffer pool after its consume
// returns, flushing residuals to the per-parameter store first; consume
// must not keep flat.
func (e *Engine) WaitAll(consume func(bucket int, flat []float32) error) error {
	for bi, bs := range e.bucket {
		if bi >= e.nextToLaunch {
			return fmt.Errorf("reduce: bucket %d was never launched", bi)
		}
		if err := bs.work.Wait(); err != nil {
			return fmt.Errorf("reduce: collective on bucket %d: %w", bi, err)
		}
		if e.cfg.ObserveReduce != nil {
			e.cfg.ObserveReduce(time.Since(bs.launchedAt))
		}
		if consume != nil {
			if err := consume(bi, bs.flat); err != nil {
				return err
			}
		}
		if e.cfg.Transient {
			if bs.resFlat != nil {
				for _, idx := range e.assign.Buckets[bi] {
					off := e.assign.OffsetOf[idx]
					copy(e.residuals[idx], bs.resFlat[off:off+e.cfg.Sizes[idx]])
				}
				buffer.PutFloats(bs.resFlat)
				bs.resFlat = nil
			}
			buffer.PutFloats(bs.flat)
			bs.flat = nil
		}
	}
	return nil
}

// BucketBytes reports the bytes currently held in bucket gradient and
// residual buffers — the quantity Transient keeps at zero between
// iterations and, within one, at the buckets that have a gradient and
// are not consumed yet; the term the sharding ablation's peak
// accounting samples.
func (e *Engine) BucketBytes() int {
	total := 0
	for _, bs := range e.bucket {
		total += 4 * (len(bs.flat) + len(bs.resFlat))
	}
	return total
}

// ResidualState returns the error-feedback residuals flattened in
// parameter order — training state exactly like optimizer moments: a
// reconfigured world must carry the elected source's residuals to
// joiners or the quantization error accumulated so far is lost at the
// worst possible moment. The layout depends only on the model, never
// on the bucket assignment or world size, so it re-shards trivially.
// Empty without residual tracking. Do not call while buckets may be
// mid-flight.
func (e *Engine) ResidualState() []float32 {
	if !e.cfg.TrackResiduals {
		return nil
	}
	e.FlushResiduals()
	total := 0
	for _, s := range e.cfg.Sizes {
		total += s
	}
	out := make([]float32, 0, total)
	for _, r := range e.residuals {
		out = append(out, r...)
	}
	return out
}

// SetResidualState installs residuals produced by ResidualState on
// another (or this) replica, scattering them into the current bucket
// layout. Like ResidualState, it must not be called while buckets may
// be mid-flight.
func (e *Engine) SetResidualState(flat []float32) error {
	if !e.cfg.TrackResiduals {
		if len(flat) == 0 {
			return nil
		}
		return errors.New("reduce: residual state offered but residual tracking is off")
	}
	want := 0
	for _, s := range e.cfg.Sizes {
		want += s
	}
	if len(flat) != want {
		return fmt.Errorf("reduce: residual state has %d elements, expected %d", len(flat), want)
	}
	off := 0
	for i := range e.residuals {
		off += copy(e.residuals[i], flat[off:off+e.cfg.Sizes[i]])
	}
	for b, bs := range e.bucket {
		if bs.resFlat == nil {
			continue
		}
		e.scatterResiduals(bs, e.assign.Buckets[b])
	}
	return nil
}
