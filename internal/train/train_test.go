package train

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/replica"
	"repro/internal/strategy"
)

var batches = data.Coords{Batch: 4, Features: 6, Classes: 3}

// onRanks builds a world-2 replica of strategy name on every rank and
// runs fn on each, concurrently; it returns every rank's parameters
// afterwards, materialized.
func onRanks(t *testing.T, name string, fn func(rank int, r replica.Replica) error) [][]float32 {
	t.Helper()
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	params := make([][]float32, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := strategy.Build(models.NewMLP(5, 6, 8, 3), groups[rank], strategy.Spec{Strategy: name, BucketCapBytes: 64, LR: 0.1})
			if err == nil {
				err = fn(rank, r)
			}
			if err == nil {
				err = r.Materialize()
			}
			if errs[rank] = err; err == nil {
				for _, p := range r.Parameters() {
					params[rank] = append(params[rank], p.Value.Data()...)
				}
			}
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("%s rank %d: %v", name, rank, err)
		}
	}
	return params
}

// TestStepRunsEveryStrategy: three synchronized steps under ddp, zero2
// and zero3 report the loss Backward started from and non-negative
// phase times, and end on the same parameters on every rank and under
// every strategy.
func TestStepRunsEveryStrategy(t *testing.T) {
	var ref []float32
	for _, name := range []string{"ddp", "zero2", "zero3"} {
		params := onRanks(t, name, func(rank int, r replica.Replica) error {
			for step := range int64(3) {
				x, labels := batches.At(step, rank, 2)
				var want float32
				loss := func(out *autograd.Variable) *autograd.Variable {
					l := CrossEntropy(labels)(out)
					want = l.Value.Item()
					return l
				}
				st, err := Step(r, x, loss, true)
				if err != nil {
					return err
				}
				if st.Loss != want || st.Forward < 0 || st.Backward < 0 {
					return fmt.Errorf("step %d: stats %+v, want loss %v and durations >= 0", step, st, want)
				}
			}
			return nil
		})
		if ref == nil {
			ref = params[0]
		}
		for rank, p := range params {
			if !slices.Equal(p, ref) {
				t.Errorf("%s rank %d ends on other parameters than ddp rank 0", name, rank)
			}
		}
	}
}

// TestStepWithoutSync: a no_sync step under ddp accumulates and leaves
// the parameters as they were; zero2 has no NoSync and is refused by
// name, before anything runs.
func TestStepWithoutSync(t *testing.T) {
	var before []float32
	after := onRanks(t, "ddp", func(rank int, r replica.Replica) error {
		if rank == 0 {
			for _, p := range r.Parameters() {
				before = append(before, p.Value.Data()...)
			}
		}
		x, labels := batches.At(0, rank, 2)
		st, err := Step(r, x, CrossEntropy(labels), false)
		if err == nil && st.Loss == 0 {
			err = fmt.Errorf("no_sync step reported loss 0")
		}
		return err
	})
	if !slices.Equal(after[0], before) {
		t.Error("a no_sync step changed the parameters")
	}
	onRanks(t, "zero2", func(rank int, r replica.Replica) error {
		x, labels := batches.At(0, rank, 2)
		ran := false
		loss := func(out *autograd.Variable) *autograd.Variable { ran = true; return CrossEntropy(labels)(out) }
		st, err := Step(r, x, loss, false)
		if err == nil || !strings.Contains(err.Error(), "*fsdp.FSDP has no NoSync") || ran || st != (Stats{}) {
			t.Errorf("rank %d: zero2 without sync: %+v, %v (loss ran: %v), want it refused by name", rank, st, err, ran)
		}
		return nil
	})
}

func TestStatsAdd(t *testing.T) {
	var sum Stats
	sum.Add(Stats{Loss: 2, Forward: 10 * time.Millisecond, Backward: 30 * time.Millisecond})
	sum.Add(Stats{Loss: 1, Forward: 5 * time.Millisecond})
	if want := (Stats{Loss: 1, Forward: 15 * time.Millisecond, Backward: 30 * time.Millisecond}); sum != want {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
}

func TestStatsBreakdown(t *testing.T) {
	if got := (Stats{}).Breakdown(); got != "(no samples)" {
		t.Fatalf("empty breakdown = %q", got)
	}
	got := Stats{Forward: 25 * time.Millisecond, Backward: 75 * time.Millisecond}.Breakdown()
	if want := "forward 25.0% (25ms) | backward+comm 75.0% (75ms)"; got != want {
		t.Fatalf("breakdown = %q, want %q", got, want)
	}
}
