package replica

import (
	"fmt"
	"strings"

	"repro/internal/autograd"
	"repro/internal/buffer"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/reduce"
)

// Align broadcasts module's parameters, then its buffers, from root to
// every rank of pg and waits for them: afterwards every replica holds
// root's model tensors bit for bit. It is the wrappers' constructor
// broadcast from rank 0 (Section 4.1) and the elastic agent's re-seeding
// of a reconfigured world from its elected source.
func Align(pg comm.ProcessGroup, root int, module nn.Module) error {
	return broadcast(pg, root, module.Parameters(), module.Buffers())
}

// broadcast is the one place a module's tensors are broadcast.
func broadcast(pg comm.ProcessGroup, root int, params []*nn.Parameter, buffers []*nn.Buffer) error {
	works := make([]comm.Work, 0, len(params)+len(buffers))
	for _, p := range params {
		works = append(works, pg.Broadcast(p.Value.Data(), root))
	}
	for _, b := range buffers {
		works = append(works, pg.Broadcast(b.Data.Data(), root))
	}
	return comm.WaitAll(works...)
}

// Core is the lifecycle ddp.DDP and fsdp.FSDP share around their
// reduce.Engine, written once: replica alignment at construction, the
// canonical bucket layout (at construction and at every rebind), the
// re-broadcast of rank 0's buffers ahead of the forward that follows a
// synchronized backward, the collective failure a Forward records for
// the next Backward to return, the diagnosis of a backward pass that
// left buckets unlaunched, and the hand-back of a finished step's
// activations. Both wrappers embed it; what they still write themselves
// is the collective they launch and what they do with its result.
//
// A wrapper's Forward lets no Variable it creates escape except its
// return value (nn.Module's contract): so once a Backward over that
// return value has succeeded, EndForward's record lets ReleaseForward
// hand every intermediate's storage back to the replica's own pool
// (autograd.Release), which Input routes the step through, and a warm
// step allocates no activations.
type Core struct {
	name     string // "ddp" or "fsdp": the prefix of every error
	module   nn.Module
	pg       comm.ProcessGroup
	params   []*nn.Parameter
	sizes    []int        // element counts, model order
	buffers  []*nn.Buffer // module.Buffers(), read once
	capBytes int
	engine   *reduce.Engine

	// buffersPending means a synchronized backward completed since rank
	// 0's buffers were last broadcast.
	buffersPending bool
	// deferred is a collective failure hit where there is no error
	// return (inside Forward, or inside the graph walk of Backward);
	// Backward returns it.
	deferred error
	// pool is the replica's own buffer pool: Input routes the step's
	// activations and gradients through it.
	pool *buffer.Floats
	// in and out are the latest Forward's input and return value, until
	// ReleaseForward hands back the graph between them.
	in, out *autograd.Variable
}

// NewCore sizes module's parameters and builds the engine from cfg
// (whose Sizes it fills in), aligns the replicas from rank 0 when align
// is set, and installs the canonical layout. capBytes is the wrapper's
// BucketCapBytes: zero selects reduce.DefaultBucketCapBytes, negative
// means one bucket per parameter. name prefixes every error.
func NewCore(name string, module nn.Module, pg comm.ProcessGroup, capBytes int, align bool, cfg reduce.Config) (Core, error) {
	if capBytes == 0 {
		capBytes = reduce.DefaultBucketCapBytes
	}
	c := Core{name: name, module: module, pg: pg, params: module.Parameters(), buffers: module.Buffers(), capBytes: capBytes, pool: buffer.NewFloats()}
	if len(c.params) == 0 {
		return c, fmt.Errorf("%s: module has no parameters", name)
	}
	c.sizes = make([]int, len(c.params))
	for i, p := range c.params {
		c.sizes[i] = p.Value.Size()
	}
	cfg.Sizes = c.sizes
	var err error
	if c.engine, err = reduce.NewEngine(cfg); err != nil {
		return c, err
	}
	if align {
		if err := Align(pg, 0, module); err != nil {
			return c, fmt.Errorf("%s: broadcasting initial state: %w", name, err)
		}
	}
	return c, c.Relayout(nil)
}

// Module returns the wrapped local model.
func (c *Core) Module() nn.Module { return c.module }

// ProcessGroup returns the communication backend currently in use.
func (c *Core) ProcessGroup() comm.ProcessGroup { return c.pg }

// Parameters exposes the wrapped model's parameters in model order (for
// optimizers). Under fsdp they hold zeros for non-owned elements
// except while gathered; fsdp.FSDP.Materialize gathers them.
func (c *Core) Parameters() []*nn.Parameter { return c.params }

// Sizes holds each parameter's element count in model order.
func (c *Core) Sizes() []int { return c.sizes }

// Engine returns the reduction engine the wrapper drives.
func (c *Core) Engine() *reduce.Engine { return c.engine }

// NumBuckets reports how many gradient buckets the current layout uses.
func (c *Core) NumBuckets() int { return c.engine.NumBuckets() }

// Assignment returns the current parameter-to-bucket mapping.
func (c *Core) Assignment() *reduce.Assignment { return c.engine.Assignment() }

// Relayout packs the parameters into buckets under the cap following
// order — nil selects the canonical reverse-registration order of
// Section 4.2 — and installs the layout in the engine, which carries
// error-feedback residuals across. Every rank must pass the same order,
// or the ranks' buckets pair different parameters (Fig 3(a)).
func (c *Core) Relayout(order []int) error {
	if order == nil {
		order = reduce.ReverseOrder(len(c.sizes))
	}
	assign, err := reduce.AssignBuckets(c.sizes, c.capBytes, 4, order)
	if err != nil {
		return err
	}
	c.engine.Install(assign)
	return nil
}

// Regroup moves the core onto pg under the canonical layout with a
// reset reducer, so that ranks that joined at different generations
// agree on the schedule. The caller has re-synchronized the state
// across the new membership: no buffer broadcast is pending and no
// failure carries over.
func (c *Core) Regroup(pg comm.ProcessGroup) error {
	c.pg = pg
	c.buffersPending, c.deferred = false, nil
	if err := c.Relayout(nil); err != nil {
		return err
	}
	c.engine.Reset()
	return nil
}

// BeginForward opens a forward pass. err is a failure the wrapper hit
// getting ready for it (nil if none); it replaces whatever an earlier
// Forward recorded that no Backward returned. When the backward that
// follows synchronizes, rank 0's buffers are first broadcast if a
// synchronized backward has completed since they last were (Section
// 4.1) — unless the pass has failed already, and a failed broadcast is
// recorded — and the engine is reset for a new iteration.
func (c *Core) BeginForward(synchronized bool, err error) {
	c.deferred = err
	if !synchronized {
		return
	}
	if c.buffersPending && err == nil {
		if err := broadcast(c.pg, 0, nil, c.buffers); err != nil {
			c.deferred = fmt.Errorf("broadcasting buffers: %w", err)
		} else {
			c.buffersPending = false
		}
	}
	c.engine.Reset()
}

// Input is x as the wrapper's module reads it: a view whose activations
// and gradients draw from the replica's own pool (autograd.InPool), so
// that no other rank of an in-process world decides whether this one's
// warm step finds its buffers.
func (c *Core) Input(x *autograd.Variable) *autograd.Variable { return autograd.InPool(x, c.pool) }

// EndForward records x and out as a Forward's input and return value,
// the graph the next successful Backward hands back, and returns out. A
// Forward that no Backward follows (an evaluation pass) is forgotten at
// the next one.
func (c *Core) EndForward(x, out *autograd.Variable) *autograd.Variable {
	c.in, c.out = x, out
	return out
}

// ReleaseForward hands the storage of every intermediate of the
// recorded Forward back to the buffer pool — never its input, its return
// value, a leaf, or storage they share — and forgets the record. The
// wrappers call it as a Backward returns nil, synchronized or not, and
// not when it fails: a failed step's graph is left to the garbage
// collector.
func (c *Core) ReleaseForward() {
	if c.out != nil {
		autograd.Release(c.out, c.in)
	}
	c.in, c.out = nil, nil
}

// Defer records err as the pass's failure unless one is recorded
// already; a nil err changes nothing.
func (c *Core) Defer(err error) {
	if c.deferred == nil {
		c.deferred = err
	}
}

// Failed reports whether the pass has a failure recorded.
func (c *Core) Failed() bool { return c.deferred != nil }

// TakeDeferred returns the recorded failure as "<wrapper>: <phase>: …"
// and clears it; nil if there is none.
func (c *Core) TakeDeferred(phase string) error {
	err := c.deferred
	if err == nil {
		return nil
	}
	c.deferred = nil
	return fmt.Errorf("%s: %s: %w", c.name, phase, err)
}

// Synchronized records that a synchronized backward completed: the next
// synchronized forward re-broadcasts rank 0's buffers first.
func (c *Core) Synchronized() { c.buffersPending = len(c.buffers) > 0 }

// Unlaunched detects the Fig 3(b) hang instead of reproducing it: when
// the backward pass left buckets unlaunched, it names the parameters the
// engine never saw marked ready this iteration, followed by hint, the
// wrapper's advice. It returns nil when every bucket launched.
func (c *Core) Unlaunched(hint string) error {
	launched, total := c.engine.Launched(), c.engine.NumBuckets()
	if launched == total {
		return nil
	}
	ready := make([]bool, len(c.params))
	for _, idx := range c.engine.ObservedReady() {
		ready[idx] = true
	}
	var missing []string
	for _, members := range c.Assignment().Buckets[launched:] {
		for _, idx := range members {
			if !ready[idx] {
				missing = append(missing, c.params[idx].Name)
			}
		}
	}
	return fmt.Errorf("%s: backward pass finished with %d bucket(s) incomplete; parameters %s received no gradient — %s",
		c.name, total-launched, strings.Join(missing, ", "), hint)
}

// ResidualState returns the error-feedback residuals flattened in
// parameter order — training state exactly like optimizer moments: a
// reconfigured world must carry the elected source's residuals to
// joiners, or the quantization error accumulated so far is lost at the
// worst possible moment. The layout depends only on the model, never on
// the bucket layout or world size. Empty without a wire codec. Do not
// call between Forward and Backward: buckets may be mid-flight.
func (c *Core) ResidualState() []float32 { return c.engine.ResidualState() }

// SetResidualState installs residuals produced by ResidualState on
// another (or this) replica, scattering them into the current bucket
// layout; residuals offered without a wire codec are an error. Like
// ResidualState, it must not be called between Forward and Backward.
func (c *Core) SetResidualState(flat []float32) error { return c.engine.SetResidualState(flat) }
