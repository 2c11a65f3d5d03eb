package strategy

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/models"
	"repro/internal/replica"
	"repro/internal/tensor"
)

// plainGroup hides every optional collective of the group it wraps, so
// the sharded constructor refuses it.
type plainGroup struct{ comm.ProcessGroup }

// TestBuildRefusesByValue: each refusal, whether Check's or a
// constructor's, names the offending value and returns a nil Replica —
// not an interface holding a nil pointer.
func TestBuildRefusesByValue(t *testing.T) {
	for _, c := range []struct {
		spec  Spec
		plain bool
		want  string
	}{
		{Spec{Strategy: "zero9"}, false, `unknown strategy "zero9"`},
		{Spec{Strategy: "ZeRO3"}, false, `unknown strategy "ZeRO3"`},
		{Spec{Strategy: "DDP"}, false, `unknown strategy "DDP"`},
		{Spec{Codec: "lz4"}, false, `unknown compression codec "lz4"`},
		{Spec{Strategy: "zero2", Codec: "FP16"}, false, `unknown compression codec "FP16"`},
		{Spec{Strategy: "zero3"}, true, "does not support the sharded collectives"},
	} {
		if c.spec.Check() == nil && !c.plain {
			t.Errorf("%+v: Check accepted it", c.spec)
		}
		pg := comm.NewInProcGroups(1, comm.Options{})[0]
		group := pg
		if c.plain {
			group = plainGroup{pg}
		}
		r, err := Build(models.NewMLP(1, 4, 4, 2), group, c.spec)
		pg.Close()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got error %v, want it refused with %q", c.spec, err, c.want)
		}
		if r != nil {
			t.Errorf("%+v: refused with a non-nil Replica %#v", c.spec, r)
		}
	}
}

// TestBuildAcceptsTheFlagSpellings: every name the flags spell builds,
// "" builds the replica "ddp" does and trains it to the same bits at
// world 2, and each codec name puts its own codec on the wire.
func TestBuildAcceptsTheFlagSpellings(t *testing.T) {
	train := func(spec Spec) (string, uint64) {
		t.Helper()
		groups := comm.NewInProcGroups(2, comm.Options{})
		types, hashes, errs := make([]string, 2), make([]uint64, 2), make([]error, 2)
		var wg sync.WaitGroup
		for rank := range groups {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				defer groups[rank].Close()
				m := models.NewMLP(1, 4, 4, 2)
				r, err := Build(m, groups[rank], spec)
				if err != nil {
					errs[rank] = err
					return
				}
				rng := rand.New(rand.NewSource(int64(3 + rank)))
				for step := 0; step < 3 && err == nil; step++ {
					out := r.Forward(autograd.Constant(tensor.RandN(rng, 1, 4, 4)))
					err = r.Backward(autograd.CrossEntropyLoss(out, []int{0, 1, 1, 0}))
					r.Step()
				}
				if err == nil {
					err = r.Materialize()
				}
				types[rank], hashes[rank], errs[rank] = fmt.Sprintf("%T", r), replica.Hash(m.Parameters()), err
			}(rank)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
		}
		if hashes[0] != hashes[1] {
			t.Fatalf("%+v: ranks ended on %016x and %016x", spec, hashes[0], hashes[1])
		}
		return types[0], hashes[0]
	}
	ddpType, ddpHash := train(Spec{Strategy: "ddp", LR: 0.1})
	if typ, hash := train(Spec{LR: 0.1}); typ != ddpType || hash != ddpHash {
		t.Errorf(`"" built %s ending on %016x, "ddp" %s ending on %016x`, typ, hash, ddpType, ddpHash)
	}
	if want := fmt.Sprintf("%T", &ddp.Replica{}); ddpType != want {
		t.Errorf(`"ddp" built %s, want %s`, ddpType, want)
	}
	for _, name := range []string{"zero2", "zero3"} {
		if typ, hash := train(Spec{Strategy: name, LR: 0.1}); typ != fmt.Sprintf("%T", &fsdp.FSDP{}) || hash != ddpHash {
			t.Errorf("%q built %s ending on %016x, want a sharded replica on the ddp hash %016x", name, typ, hash, ddpHash)
		}
	}
	seen := map[uint64]string{ddpHash: "no codec"}
	for _, codec := range []string{"fp16", "1bit", "topk"} {
		_, hash := train(Spec{Codec: codec, LR: 0.1})
		if other, ok := seen[hash]; ok {
			t.Errorf("codec %q ended on the hash %s ends on, %016x", codec, other, hash)
		}
		seen[hash] = codec
	}
}
