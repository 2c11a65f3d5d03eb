package replica_test

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/buffer"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// graphModel is a one-matrix model whose Forward builds the graph its
// case describes and notes, by name, the variables it creates: it breaks
// nn.Module's contract on purpose, so that the test sees which of them a
// step hands back. unused is a parameter no graph reads unless the case
// does.
type graphModel struct {
	w, unused *nn.Parameter
	build     func(m *graphModel, x *autograd.Variable) *autograd.Variable
	noted     map[string]*autograd.Variable
}

func newGraphModel(build func(m *graphModel, x *autograd.Variable) *autograd.Variable) *graphModel {
	rng := rand.New(rand.NewSource(41))
	return &graphModel{
		w:      nn.NewParameter("w", tensor.RandN(rng, 1, 4, 4)),
		unused: nn.NewParameter("unused", tensor.RandN(rng, 1, 4)),
		build:  build,
	}
}

func (m *graphModel) note(name string, v *autograd.Variable) *autograd.Variable {
	m.noted[name] = v
	return v
}

func (m *graphModel) Forward(x *autograd.Variable) *autograd.Variable {
	m.noted = map[string]*autograd.Variable{}
	return m.build(m, x)
}
func (m *graphModel) Parameters() []*nn.Parameter { return []*nn.Parameter{m.w, m.unused} }
func (m *graphModel) Buffers() []*nn.Buffer       { return nil }
func (m *graphModel) SetTraining(bool)            {}

// usesBoth adds the unused parameter to v without changing its shape,
// so that every parameter of graphModel receives a gradient.
func usesBoth(m *graphModel, v *autograd.Variable) *autograd.Variable {
	return autograd.AddRow(v, m.unused.Variable)
}

// releaseCase is one graph and what a step over it must leave: the
// noted variables it hands back and those whose values it keeps intact.
type releaseCase struct {
	name     string
	build    func(m *graphModel, x *autograd.Variable) *autograd.Variable
	released []string
	kept     []string
	// noSync runs the step's Forward and Backward under ddp's NoSync
	// (ddp only): DDP decides at Forward whether a step synchronizes;
	// fails makes Backward fail (the unused parameter gets no gradient);
	// eval runs an evaluation Forward first, whose graph no Backward
	// follows.
	noSync, fails, eval bool
}

var releaseCases = []releaseCase{
	{
		name: "the result and a view of it survive",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			mm := m.note("mm", autograd.MatMul(x, m.w.Variable))
			h := m.note("h", autograd.Tanh(usesBoth(m, mm)))
			return autograd.Reshape(h, 8)
		},
		released: []string{"mm"},
		kept:     []string{"h"},
	},
	{
		// The views themselves are intermediates, detached like any
		// other; the storage they view is the input's and the
		// parameter's, which the step keeps.
		name: "a leaf input and a parameter viewed by internal Reshapes survive",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			xr := m.note("xr", autograd.Reshape(x, 2, 4))
			wr := m.note("wr", autograd.Reshape(m.w.Variable, 4, 4))
			mm := m.note("mm", autograd.MatMul(xr, wr))
			return autograd.Tanh(usesBoth(m, mm))
		},
		released: []string{"mm", "wr"},
		kept:     []string{"xr"}, // an op over constants records no graph: xr is a leaf
	},
	{
		name: "storage two intermediates share is handed back once",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			h := m.note("h", autograd.Tanh(usesBoth(m, autograd.MatMul(x, m.w.Variable))))
			a := m.note("a", autograd.Reshape(h, 8))
			b := m.note("b", autograd.Reshape(h, 8))
			return autograd.Add(a, b)
		},
		released: []string{"h", "a", "b"},
	},
	{
		name: "a no_sync step releases",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			mm := m.note("mm", autograd.MatMul(x, m.w.Variable))
			return autograd.Tanh(usesBoth(m, mm))
		},
		released: []string{"mm"},
		noSync:   true,
	},
	{
		name: "a Backward that errors releases nothing",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			mm := m.note("mm", autograd.MatMul(x, m.w.Variable))
			return autograd.Tanh(m.note("h", autograd.Tanh(mm)))
		},
		kept:  []string{"mm", "h"},
		fails: true,
	},
	{
		name: "an evaluation Forward releases nothing",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			mm := m.note("mm", autograd.MatMul(x, m.w.Variable))
			return autograd.Tanh(usesBoth(m, mm))
		},
		released: []string{"mm"},
		eval:     true,
	},
	{
		name: "a checkpointed segment's forward and recompute are handed back",
		build: func(m *graphModel, x *autograd.Variable) *autograd.Variable {
			runs := 0
			seg := autograd.Checkpoint(func(in *autograd.Variable) *autograd.Variable {
				runs++
				suffix := strings.Repeat("'", runs-1) // the recompute's are mm', h'
				mm := m.note("mm"+suffix, autograd.MatMul(in, m.w.Variable))
				return m.note("h"+suffix, autograd.Tanh(usesBoth(m, mm)))
			}, x)
			return autograd.Tanh(m.note("seg", seg))
		},
		released: []string{"mm", "h", "seg", "mm'", "h'"},
	},
}

// releaseWrappers builds each replica the release rules hold for, at
// world 1.
var releaseWrappers = []struct {
	name string
	make func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error)
}{
	{"ddp", func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		return ddp.NewReplica(m, pg, ddp.Options{}, cLR, 0)
	}},
	{"zero2", func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		return fsdp.New(m, pg, fsdp.Options{Strategy: fsdp.ZeRO2, LR: cLR})
	}},
	{"zero3", func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		return fsdp.New(m, pg, fsdp.Options{Strategy: fsdp.ZeRO3, LR: cLR})
	}},
}

// fp16Wrappers are ddp and zero3 over the fp16 wire codec: a step also
// runs the compressed collectives and their residual buffers, which
// stay with their buckets across steps.
var fp16Wrappers = []struct {
	name string
	make func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error)
}{
	{"ddp/fp16", func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		return ddp.NewReplica(m, pg, ddp.Options{NewCodec: fp16}, cLR, 0)
	}},
	{"zero3/fp16", func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		return fsdp.New(m, pg, fsdp.Options{Strategy: fsdp.ZeRO3, LR: cLR, NewCodec: fp16})
	}},
}

func fp16() comm.Codec { return comm.Float16Codec{} }

// TestStepReleasesIntermediates holds every wrapper to the release
// rules: after a Backward that returns nil, every intermediate below the
// Forward's return value is detached — its storage back in the pool,
// once, or kept by what it views — and nothing the caller or the model
// keeps is: the result, the input, the parameters, and whatever shares
// their storage keep their storage and values.
func TestStepReleasesIntermediates(t *testing.T) {
	for _, wr := range releaseWrappers {
		for _, c := range releaseCases {
			if c.noSync && wr.name != "ddp" {
				continue
			}
			t.Run(wr.name+"/"+c.name, func(t *testing.T) { runReleaseCase(t, wr.make, c) })
		}
	}
}

func runReleaseCase(t *testing.T, wrap func(nn.Module, comm.ProcessGroup) (replica.Replica, error), c releaseCase) {
	m := newGraphModel(c.build)
	r, err := wrap(m, groupsOf(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Constant(tensor.RandN(rand.New(rand.NewSource(42)), 1, 2, 4))
	xBefore := x.Value.Clone()
	var evalNoted map[string]*autograd.Variable
	var evalSnap map[string]*tensor.Tensor
	if c.eval {
		r.Forward(x)
		evalNoted, evalSnap = m.noted, snapshot(m.noted)
	}
	wBefore := m.w.Value.Clone()
	var out *autograd.Variable
	var noted map[string]*autograd.Variable
	var snap map[string]*tensor.Tensor
	var outSnap *tensor.Tensor
	step := func() error {
		out = r.Forward(x)
		noted, snap, outSnap = m.noted, snapshot(m.noted), out.Value.Clone()
		return r.Backward(autograd.Sum(autograd.Reshape(out, -1))) // the caller's own view of the result
	}
	if c.noSync {
		d := r.(*ddp.Replica)
		err = d.NoSync(step)
		if n := d.Engine().Launched(); n != 0 {
			t.Errorf("the no_sync step launched %d bucket(s)", n)
		}
	} else {
		err = step()
	}
	if (err != nil) != c.fails {
		t.Fatalf("Backward returned %v; want a failure: %v", err, c.fails)
	}

	for _, name := range c.released {
		if v := noted[name]; v == nil || v.Value.Data() != nil {
			t.Errorf("%s was not handed back", name)
		}
	}
	for _, name := range c.kept {
		if v := noted[name]; v == nil || !testutil.SameBits(v.Value, snap[name]) {
			t.Errorf("%s was handed back or overwritten", name)
		}
	}
	for name, v := range evalNoted {
		if !testutil.SameBits(v.Value, evalSnap[name]) {
			t.Errorf("the evaluation Forward's %s was handed back or overwritten", name)
		}
	}
	if !testutil.SameBits(out.Value, outSnap) || !testutil.SameBits(x.Value, xBefore) {
		t.Error("the Forward's result or its input changed")
	}
	if m.w.Value.Size() != 16 {
		t.Error("the parameter's storage was handed back")
	}
	if c.noSync && !testutil.SameBits(m.w.Value, wBefore) {
		t.Error("the parameter changed in a no_sync step")
	}
	// The shared storage went back once: the pool hands it out once.
	if h := noted["h"]; len(c.released) > 0 && h != nil && h.Value.Data() == nil {
		n := snap["h"].Size()
		if a, b := buffer.GetFloats(n), buffer.GetFloats(n); &a[0] == &b[0] {
			t.Error("the pool handed one buffer out twice: an intermediate was handed back twice")
		}
	}
}

// snapshot copies the values of the noted variables.
func snapshot(noted map[string]*autograd.Variable) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(noted))
	for name, v := range noted {
		out[name] = v.Value.Clone()
	}
	return out
}

// TestReleasedIntermediatePanicsOnRead: an intermediate read after its
// step panics instead of returning whatever the storage's next owner
// wrote there.
func TestReleasedIntermediatePanicsOnRead(t *testing.T) {
	m := newGraphModel(releaseCases[0].build)
	r, err := releaseWrappers[0].make(m, groupsOf(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	x := autograd.Constant(tensor.RandN(rand.New(rand.NewSource(43)), 1, 2, 4))
	if err := r.Backward(autograd.Sum(r.Forward(x))); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a released intermediate did not panic")
		}
	}()
	_ = m.noted["mm"].Value.At(0, 0)
}

// TestWarmStepAllocatesNoTensorStorage is the warm-step gate: two ranks
// training each model of warmModels under each of its wrappers draw
// every activation, gradient temporary, frame and flat of a warm step
// from the buffer pool — the step records no pool miss — and allocate
// no more than the model's bound over both ranks.
func TestWarmStepAllocatesNoTensorStorage(t *testing.T) {
	if buffer.RaceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const world, warm, steps = 2, 5, 10
	misses := metrics.Default().CounterVec("buffer_pool_misses_total", "", "elem").With("float32")
	for _, wm := range warmModels {
		for _, wr := range wm.wrappers {
			t.Run(wr.name+wm.suffix, func(t *testing.T) {
				groups := groupsOf(t, world)
				rs := make([]replica.Replica, world)
				xs, ys := make([]*autograd.Variable, world), make([]*autograd.Variable, world)
				runRanks(t, world, func(rank int) error {
					r, err := wr.make(wm.model(), groups[rank])
					rng := rand.New(rand.NewSource(int64(rank) + 1))
					rs[rank] = r
					xs[rank] = autograd.Constant(tensor.RandN(rng, 1, wm.x...))
					ys[rank] = autograd.Constant(tensor.RandN(rng, 1, wm.y...))
					return err
				})
				train := func(n int) {
					runRanks(t, world, func(rank int) error {
						for i := 0; i < n; i++ {
							out := rs[rank].Forward(xs[rank])
							if err := rs[rank].Backward(autograd.MSELoss(out, ys[rank])); err != nil {
								return err
							}
							out.Value.Release() // the result is the caller's to hand back
						}
						return nil
					})
				}
				train(warm)
				var before, after runtime.MemStats
				runtime.GC()
				missed := misses.Value()
				runtime.ReadMemStats(&before)
				train(steps)
				runtime.ReadMemStats(&after)
				missed = misses.Value() - missed
				perStep := (after.TotalAlloc - before.TotalAlloc) / steps
				t.Logf("%d bytes a step over %d ranks, %v pool misses", perStep, world, missed)
				if missed != 0 {
					t.Errorf("%v buffer pool misses over %d warm steps; want none", missed, steps)
				}
				if perStep > wm.limit {
					t.Errorf("a warm step allocates %d bytes; the bound is %d", perStep, wm.limit)
				}
			})
		}
	}
}

// warmModels are the models the warm-step gate trains, each at batch x
// against an MSE target y, and the bytes a warm step of it may allocate
// over both ranks: graph nodes, closures, tensor headers, the loss.
var warmModels = []struct {
	suffix   string
	model    func() nn.Module
	x, y     []int
	limit    uint64
	wrappers []struct {
		name string
		make func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error)
	}
}{
	// The benchmark's BERT-shaped transformer (4 blocks, dim 128, 4
	// heads, feed-forward 512) at 16 tokens a rank, under every wrapper.
	// Storage allocated per step instead is 4.8 MB.
	{"", func() nn.Module { return models.NewTinyTransformer(1, 128, 4, 512, 4) },
		[]int{16, 128}, []int{16, 128}, 512 << 10, append(slices.Clone(releaseWrappers), fp16Wrappers...)},
	// SmallCNN at 8 images of 1×12×12 a rank, under ddp, zero2 and
	// zero3: 25–37 KB a step, bounded a third above the largest. While
	// MaxPool2D kept a []int argmax (3 456 indices a rank) these rows
	// allocated 81–92 KB, and while Conv2D allocated its weight gradient
	// beside the destination it was offered they missed the pool 40
	// times over 10 steps.
	{"/cnn", func() nn.Module { return models.NewSmallCNN(1, 1, 12, 10) },
		[]int{8, 1, 12, 12}, []int{8, 10}, 48 << 10, releaseWrappers},
}
