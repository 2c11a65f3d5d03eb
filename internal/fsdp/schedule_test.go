package fsdp

import (
	"fmt"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/nn"
	"repro/internal/reduce"
	"repro/internal/replica"
)

// recorder is a process group that logs every collective submitted to
// it, by kind and element count, before passing it on.
type recorder struct {
	comm.ShardedGroup
	log []string
}

func (r *recorder) note(kind string, n int) { r.log = append(r.log, fmt.Sprintf("%s[%d]", kind, n)) }

func (r *recorder) AllReduce(data []float32, op comm.ReduceOp) comm.Work {
	r.note("AllReduce", len(data))
	return r.ShardedGroup.AllReduce(data, op)
}

func (r *recorder) ReduceScatterV(data []float32, op comm.ReduceOp) comm.Work {
	r.note("ReduceScatterV", len(data))
	return r.ShardedGroup.ReduceScatterV(data, op)
}

func (r *recorder) CompressedReduceScatterV(data []float32, op comm.ReduceOp, codec comm.Codec, residual []float32) comm.Work {
	r.note("CompressedReduceScatterV", len(data))
	return r.ShardedGroup.CompressedReduceScatterV(data, op, codec, residual)
}

func (r *recorder) AllGatherV(data []float32) comm.Work {
	r.note("AllGatherV", len(data))
	return r.ShardedGroup.AllGatherV(data)
}

func (r *recorder) Broadcast(data []float32, root int) comm.Work {
	r.note("Broadcast", len(data))
	return r.ShardedGroup.Broadcast(data, root)
}

func (r *recorder) AllGather(dst [][]float32, src []float32) comm.Work {
	r.note("AllGather", len(src))
	return r.ShardedGroup.AllGather(dst, src)
}

func (r *recorder) Barrier() comm.Work {
	r.note("Barrier", 0)
	return r.ShardedGroup.Barrier()
}

// unitCounts is how many parameters each of module's units holds, the
// units mapUnits takes.
func unitCounts(module nn.Module) []int {
	_, counts := replica.Units(module)
	return counts
}

// TestStepMatchesSchedule holds the two descriptions of a step to each
// other: the collectives a real ddp, zero2 or zero3 replica submits in
// its second synchronized step, by kind, size and order, on every rank,
// are the ones replica.Schedule lists for that replica's layout and units — the
// schedule simnet walks. A sharded replica plans once more after its
// probe's fitSteps steps, for the link it measured (in process, joining
// gathers or not by how the run's timing falls): the step after that
// re-plan submits what reduce.Schedule lists for the new plan.
func TestStepMatchesSchedule(t *testing.T) {
	for _, fx := range []fixture{bertFixture, deepFixture} {
		for _, strategy := range []string{"ddp", "zero2", "zero3"} {
			for _, world := range []int{2, 3} {
				t.Run(fx.name+"/"+strategy+"/"+worldName(world), func(t *testing.T) {
					t.Parallel()
					groups := inProcGroups(t, world)
					batches, labels := fx.makeData(world, fitSteps+2)
					recs := make([]*recorder, world)
					reps := make([]replica.Replica, world)
					second := make([][]string, world)
					runRanks(t, world, func(rank int) error {
						rec := &recorder{ShardedGroup: groups[rank].(comm.ShardedGroup)}
						r, err := scheduleReplica(strategy, fx, rec)
						if err != nil {
							return err
						}
						recs[rank], reps[rank] = rec, r
						for i := range batches {
							rec.log = nil // keep the last step's
							x := autograd.Constant(shardRows(batches[i], rank, tPerRank))
							y := autograd.Constant(shardRows(labels[i], rank, tPerRank))
							if err := r.Backward(autograd.MSELoss(r.Forward(x), y)); err != nil {
								return err
							}
							if i == 1 {
								second[rank] = rec.log
							}
						}
						return nil
					})
					for rank, r := range reps {
						core := r.(interface {
							Assignment() *reduce.Assignment
							Module() nn.Module
						})
						assign := core.Assignment()
						units := reduce.UnitBuckets(assign, unitCounts(core.Module()))
						step, err := replica.Schedule(strategy, assign, units, world)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := second[rank], logOf(step); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("rank %d submitted\n%v\nthe schedule lists\n%v", rank, got, want)
						}
						if f, ok := r.(*FSDP); ok {
							step = reduce.Schedule(assign, units, &f.plan)
						}
						if got, want := recs[rank].log, logOf(step); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("rank %d submitted after the re-plan\n%v\nthe schedule lists\n%v", rank, got, want)
						}
					}
				})
			}
		}
	}
}

// logOf is how a recorder logs step's collectives.
func logOf(step reduce.Step) []string {
	out := make([]string, len(step))
	for i, c := range step {
		out[i] = fmt.Sprintf("%v[%d]", c.Kind, c.Elems)
	}
	return out
}

// scheduleReplica builds the fixture's model as a replica of strategy
// over pg.
func scheduleReplica(strategy string, fx fixture, pg comm.ShardedGroup) (replica.Replica, error) {
	m := fx.build()
	if strategy == "ddp" {
		return ddp.NewReplica(m, pg, ddp.Options{BucketCapBytes: fx.cap}, tLR, tMomentum)
	}
	st := map[string]Strategy{"zero2": ZeRO2, "zero3": ZeRO3}[strategy]
	return New(m, pg, Options{Strategy: st, BucketCapBytes: fx.cap, LR: tLR, Momentum: tMomentum})
}
