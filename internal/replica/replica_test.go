package replica_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

const (
	cIn, cHidden, cClasses = 6, 9, 4
	cBatch                 = 4
	cCap                   = 128 // bytes: several buckets, uneven chunks at worlds 2 and 3
	cLR, cMomentum         = 0.1, 0.9
	cSteps                 = 3 // per phase
)

func cBatchFor(step, rank, world int) (*autograd.Variable, []int) {
	rng := rand.New(rand.NewSource(int64(step*1_000_003 + rank*10_007 + world*101)))
	labels := make([]int, cBatch)
	for i := range labels {
		labels[i] = rng.Intn(cClasses)
	}
	return autograd.Constant(tensor.RandN(rng, 1, cBatch, cIn)), labels
}

func cSGD(m nn.Module) *optim.SGD {
	opt := optim.NewSGD(m.Parameters(), cLR)
	opt.Momentum = cMomentum
	return opt
}

func oneBit() comm.Codec { return &comm.OneBitCodec{} }

// groupsOf builds an in-proc world closed when the test ends.
func groupsOf(t *testing.T, world int) []comm.ProcessGroup {
	groups := comm.NewInProcGroups(world, comm.Options{})
	t.Cleanup(func() {
		for _, g := range groups {
			g.Close()
		}
	})
	return groups
}

// runRanks runs fn once per rank concurrently and fails on any error.
func runRanks(t *testing.T, world int, fn func(rank int) error) {
	t.Helper()
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// concreteDDP is the oracle: the schedule through ddp.DDP and optim.SGD
// called directly, the way every caller wrote it before the seam — 3
// steps at world 3, SetProcessGroup onto world 2, 3 more steps.
func concreteDDP(t *testing.T, newCodec func() comm.Codec) [][]*nn.Parameter {
	t.Helper()
	wide, narrow := groupsOf(t, 3), groupsOf(t, 2)
	ds := make([]*ddp.DDP, 3)
	opts := make([]*optim.SGD, 3)
	steps := func(rank, world, from int) error {
		for s := from; s < from+cSteps; s++ {
			x, labels := cBatchFor(s, rank, world)
			if err := ds[rank].Backward(autograd.CrossEntropyLoss(ds[rank].Forward(x), labels)); err != nil {
				return err
			}
			opts[rank].Step()
			opts[rank].ZeroGrad()
		}
		return nil
	}
	runRanks(t, 3, func(rank int) error {
		m := models.NewMLP(5, cIn, cHidden, cClasses)
		d, err := ddp.New(m, wide[rank], ddp.Options{BucketCapBytes: cCap, NewCodec: newCodec})
		if err != nil {
			return err
		}
		ds[rank], opts[rank] = d, cSGD(m)
		return steps(rank, 3, 0)
	})
	runRanks(t, 2, func(rank int) error {
		if err := ds[rank].SetProcessGroup(narrow[rank]); err != nil {
			return err
		}
		return steps(rank, 2, cSteps)
	})
	return [][]*nn.Parameter{ds[0].Parameters(), ds[1].Parameters()}
}

// TestSeamConformance drives every implementation through the one
// sequence the elastic agent runs — train, capture the full state,
// Rebind onto a smaller world, install, train on — using nothing but
// the interface, and requires the survivors' parameters to be bitwise
// the concrete-API DDP+SGD run's. For the sharded rows that is also the
// statement that ZeRO over Ring groups is the DDP trajectory, across a
// re-shard; for the compressed row, that capture → Rebind → install
// carries error-feedback residuals exactly as SetProcessGroup does.
func TestSeamConformance(t *testing.T) {
	build := func(strategy fsdp.Strategy) func(nn.Module, comm.ProcessGroup) (replica.Replica, error) {
		return func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
			return fsdp.New(m, pg, fsdp.Options{Strategy: strategy, BucketCapBytes: cCap, LR: cLR, Momentum: cMomentum})
		}
	}
	ddpWith := func(newCodec func() comm.Codec) func(nn.Module, comm.ProcessGroup) (replica.Replica, error) {
		return func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
			return ddp.NewReplica(m, pg, ddp.Options{BucketCapBytes: cCap, NewCodec: newCodec}, cSGD(m))
		}
	}
	for _, row := range []struct {
		name     string
		build    func(nn.Module, comm.ProcessGroup) (replica.Replica, error)
		newCodec func() comm.Codec // the oracle's
		full     bool
	}{
		{"ddp", ddpWith(nil), nil, true},
		{"ddp+1bit", ddpWith(oneBit), oneBit, true},
		{"zero2", build(fsdp.ZeRO2), nil, false},
		{"zero3", build(fsdp.ZeRO3), nil, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := concreteDDP(t, row.newCodec)

			wide, narrow := groupsOf(t, 3), groupsOf(t, 2)
			reps := make([]replica.Replica, 3)
			states := make([]replica.State, 3)
			steps := func(rank, world, from int) error {
				r := reps[rank]
				for s := from; s < from+cSteps; s++ {
					x, labels := cBatchFor(s, rank, world)
					if err := r.Backward(autograd.CrossEntropyLoss(r.Forward(x), labels)); err != nil {
						return err
					}
					r.Step()
				}
				return nil
			}
			runRanks(t, 3, func(rank int) (err error) {
				if reps[rank], err = row.build(models.NewMLP(5, cIn, cHidden, cClasses), wide[rank]); err != nil {
					return err
				}
				if got := reps[rank].HoldsFullState(); got != row.full {
					return fmt.Errorf("HoldsFullState = %v, want %v", got, row.full)
				}
				if err = steps(rank, 3, 0); err != nil {
					return err
				}
				// Full parameters into the tensors, the rest into a State:
				// both collectives where the state is sharded.
				if err = reps[rank].Materialize(); err != nil {
					return err
				}
				states[rank], err = reps[rank].CaptureState()
				return err
			})
			if n := len(states[0].Optimizer); n != nn.NumParams(models.NewMLP(5, cIn, cHidden, cClasses)) {
				t.Fatalf("captured optimizer state has %d elements", n)
			}
			if (len(states[0].Residuals) > 0) != (row.newCodec != nil) {
				t.Fatalf("captured %d residuals with codec %v", len(states[0].Residuals), row.newCodec != nil)
			}
			runRanks(t, 2, func(rank int) error {
				if err := reps[rank].Rebind(narrow[rank]); err != nil {
					return err
				}
				// Rank 1 adopts rank 0's optimizer state, as a joiner would:
				// the vector means the same thing on every rank.
				st := replica.State{Optimizer: states[0].Optimizer, Residuals: states[rank].Residuals}
				if err := reps[rank].InstallState(st); err != nil {
					return err
				}
				if nb := reps[rank].NumBuckets(); nb < 2 {
					return fmt.Errorf("%d bucket(s); the fixture must span several", nb)
				}
				if err := steps(rank, 2, cSteps); err != nil {
					return err
				}
				return reps[rank].Materialize()
			})
			for rank := range want {
				for i, p := range reps[rank].Parameters() {
					if !testutil.SameBits(p.Value, want[rank][i].Value) {
						t.Fatalf("rank %d parameter %s differs from the concrete-API run", rank, p.Name)
					}
				}
			}
		})
	}
}

// TestHashSeesWhatASumCannot: one ULP in one element and a swap of two
// elements both leave a float64 sum (and its float32 rounding) where
// it was, or within rounding of it; the hash must move.
func TestHashSeesWhatASumCannot(t *testing.T) {
	m := models.NewMLP(3, cIn, cHidden, cClasses)
	params := m.Parameters()
	base := replica.Hash(params)
	if replica.Hash(models.NewMLP(3, cIn, cHidden, cClasses).Parameters()) != base {
		t.Fatal("identical replicas hash differently")
	}
	d := params[0].Value.Data()

	orig := d[3]
	d[3] = math.Float32frombits(math.Float32bits(orig) + 1)
	if replica.Hash(params) == base {
		t.Fatal("a one-ULP change in one element went unseen")
	}
	d[3] = orig

	if d[1] == d[2] {
		t.Fatal("fixture: elements to swap are equal")
	}
	d[1], d[2] = d[2], d[1]
	if replica.Hash(params) == base {
		t.Fatal("a swap of two elements went unseen")
	}
	d[1], d[2] = d[2], d[1]

	d[0] = float32(math.Copysign(0, -1))
	neg := replica.Hash(params)
	d[0] = 0
	if replica.Hash(params) == neg {
		t.Fatal("-0 and +0 hash alike")
	}
}

// TestConsistentReportsDivergence runs the check the binaries end with
// over a real group: equal replicas pass, and a replica one ULP off is
// reported by every rank — including through the 16-bit limbs, which
// must carry all 64 bits of the hash.
func TestConsistentReportsDivergence(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xffff, 0x1_0000, 0xdead_beef_cafe_f00d, math.MaxUint64} {
		if got := replica.FromLimbs(replica.Limbs(v)); got != v {
			t.Fatalf("limbs round trip %#x -> %#x", v, got)
		}
	}
	for _, diverge := range []bool{false, true} {
		groups := groupsOf(t, 3)
		same := make([]bool, 3)
		runRanks(t, 3, func(rank int) error {
			m := models.NewMLP(5, cIn, cHidden, cClasses)
			r, err := ddp.NewReplica(m, groups[rank], ddp.Options{}, cSGD(m))
			if err != nil {
				return err
			}
			if diverge && rank == 2 {
				d := m.Parameters()[1].Value.Data()
				d[0] = math.Float32frombits(math.Float32bits(d[0]) ^ 1)
			}
			_, same[rank], err = replica.Consistent(groups[rank], r)
			return err
		})
		for rank, ok := range same {
			if ok == diverge {
				t.Fatalf("diverge=%v: rank %d reported consistent=%v", diverge, rank, ok)
			}
		}
	}
}
