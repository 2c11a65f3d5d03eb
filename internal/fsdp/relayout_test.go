package fsdp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/nn"
	"repro/internal/replica"
)

// relayoutCodecs are the wire codecs whose residuals must come through
// a relayout.
var relayoutCodecs = []struct {
	name string
	make func() comm.Codec
}{
	{"fp16", func() comm.Codec { return comm.Float16Codec{} }},
	{"1bit", func() comm.Codec { return &comm.OneBitCodec{} }},
	{"topk", func() comm.Codec { return &comm.TopKCodec{} }},
}

// execReversed registers its layers in the opposite order of their
// execution, so its gradients become ready in an order the
// reverse-registration guess gets wrong, and a traced rebuild repacks
// its buckets.
type execReversed struct{ head, body *nn.Linear }

func newExecReversed() nn.Module {
	rng := rand.New(rand.NewSource(3))
	return &execReversed{nn.NewLinear(rng, "head", tHidden, tOut), nn.NewLinear(rng, "body", tIn, tHidden)}
}

func (m *execReversed) Forward(x *autograd.Variable) *autograd.Variable {
	return m.head.Forward(autograd.Tanh(m.body.Forward(x)))
}

func (m *execReversed) Parameters() []*nn.Parameter {
	return append(m.head.Parameters(), m.body.Parameters()...)
}
func (m *execReversed) Buffers() []*nn.Buffer { return nil }
func (m *execReversed) SetTraining(bool)      {}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// nonZero reports whether v holds an element other than ±0, the
// precondition for a continuity check to mean anything.
func nonZero(v []float32) bool {
	for _, x := range v {
		if x != 0 {
			return true
		}
	}
	return false
}

// TestStateSurvivesRelayout: every relayout a replica goes through — a
// ddp bucket rebuild (Section 6.2.1), a ddp process-group swap, and an
// fsdp Rebind to another world, whose chunk bounds move — carries the
// error-feedback residuals of every codec, and fsdp's momentum, bit for
// bit in model order. Each row checks that the relayout did change what
// it relays (the bucket layout, or the world), so that a residual left
// where it was cannot pass for one carried across.
func TestStateSurvivesRelayout(t *testing.T) {
	const world = 3
	batches, labels := mlpFixture.makeData(world, 3)
	step := func(r replica.Replica, rank, i int) error {
		x := autograd.Constant(shardRows(batches[i], rank, tPerRank))
		y := autograd.Constant(shardRows(labels[i], rank, tPerRank))
		return r.Backward(autograd.MSELoss(r.Forward(x), y))
	}
	newDDP := func(pg comm.ProcessGroup, codec func() comm.Codec) (*ddp.Replica, error) {
		return ddp.NewReplica(newExecReversed(), pg, ddp.Options{BucketCapBytes: tCap, AutoRebuildBuckets: true, NewCodec: codec}, tLR, tMomentum)
	}
	rows := []struct {
		name string
		// relayout trains a replica of rank on group a, moves it to
		// another layout — over b for the rows that swap the group, of
		// next ranks — and returns its state captured on either side.
		relayout func(rank int, a, b comm.ProcessGroup, codec func() comm.Codec) (before, after replica.State, err error)
		next     int
	}{
		{"ddp rebuild", func(rank int, a, _ comm.ProcessGroup, codec func() comm.Codec) (before, after replica.State, err error) {
			r, err := newDDP(a, codec)
			if err != nil {
				return
			}
			if err = step(r, rank, 0); err != nil {
				return
			}
			old := r.Assignment().Buckets
			before, _ = r.CaptureState()
			// The traced rebuild fires inside the next synchronized
			// Forward, before any bucket launches.
			x := autograd.Constant(shardRows(batches[1], rank, tPerRank))
			out := r.Forward(x)
			after, _ = r.CaptureState()
			if reflect.DeepEqual(old, r.Assignment().Buckets) {
				return before, after, fmt.Errorf("the rebuild left the layout %v as it was", old)
			}
			err = r.Backward(autograd.MSELoss(out, autograd.Constant(shardRows(labels[1], rank, tPerRank))))
			return
		}, world},
		{"ddp SetProcessGroup", func(rank int, a, b comm.ProcessGroup, codec func() comm.Codec) (before, after replica.State, err error) {
			r, err := newDDP(a, codec)
			if err != nil {
				return
			}
			for i := range 2 { // the second step rebuilds to the traced order
				if err = step(r, rank, i); err != nil {
					return
				}
			}
			old := r.Assignment().Buckets
			before, _ = r.CaptureState()
			if err = r.Rebind(b); err != nil {
				return
			}
			after, _ = r.CaptureState()
			if reflect.DeepEqual(old, r.Assignment().Buckets) {
				return before, after, fmt.Errorf("the swap left the traced layout %v as it was", old)
			}
			err = step(r, rank, 2)
			return
		}, world},
		{"fsdp Rebind", func(rank int, a, b comm.ProcessGroup, codec func() comm.Codec) (before, after replica.State, err error) {
			f, err := New(mlpFixture.build(), a, Options{Strategy: ZeRO3, BucketCapBytes: tCap, LR: tLR, Momentum: tMomentum, NewCodec: codec})
			if err != nil {
				return
			}
			for i := range 2 {
				if err = step(f, rank, i); err != nil {
					return
				}
			}
			if err = f.Materialize(); err != nil {
				return
			}
			if before, err = f.CaptureState(); err != nil || b == nil {
				return // the rank the smaller world leaves out
			}
			if err = f.Rebind(b); err != nil {
				return
			}
			if err = f.InstallState(replica.State{Optimizer: before.Optimizer}); err != nil {
				return
			}
			after, err = f.CaptureState()
			return
		}, world - 1},
	}
	for _, row := range rows {
		for _, codec := range relayoutCodecs {
			t.Run(row.name+"/"+codec.name, func(t *testing.T) {
				a, b := inProcGroups(t, world), inProcGroups(t, row.next)
				before := make([]replica.State, world)
				after := make([]replica.State, world)
				runRanks(t, world, func(rank int) error {
					var next comm.ProcessGroup
					if rank < row.next {
						next = b[rank]
					}
					var err error
					before[rank], after[rank], err = row.relayout(rank, a[rank], next, codec.make)
					return err
				})
				for rank := range row.next {
					if !nonZero(before[rank].Residuals) || !nonZero(before[rank].Optimizer) {
						t.Fatalf("rank %d holds no residual or no momentum to carry; the check is vacuous", rank)
					}
					if !sameBits(before[rank].Residuals, after[rank].Residuals) {
						t.Fatalf("rank %d: residuals changed across the relayout", rank)
					}
					if !sameBits(before[rank].Optimizer, after[rank].Optimizer) {
						t.Fatalf("rank %d: momentum changed across the relayout", rank)
					}
				}
			})
		}
	}
}
