package fsdp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/reduce"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// TestFitRecoversTheShapedLink trains a ZeRO-3 wrapper over the shaped
// fixture, 2 ms and 5 MB/s a directed link, at worlds 2 and 4, with the
// last rank starting every step 1 ms after the others. Its units gather
// buffers of about 9 KB and 66 KB. A ring AllGatherV over w ranks takes
// w−1 hops of a chunk each, so the link is α = (w−1)·2 ms and β =
// (w−1)/w per byte of the buffer over 5 MB/s. Once fitSteps steps are
// measured every rank reports the same fit: β within 40 % — each size's
// fastest of three samples, which a loaded machine slows — and α no
// less than the latencies and no more than 1.5 ms a hop above them,
// the receiver's sleep past a frame's due time (the runtime's timers
// wake on a millisecond grain when nothing else runs). The plan before
// the fit was made for no link, and a Rebind drops the fit.
func TestFitRecoversTheShapedLink(t *testing.T) {
	const (
		latency   = 2 * time.Millisecond
		bandwidth = 5e6
		skew      = time.Millisecond
		overshoot = 1500 * time.Microsecond
	)
	build := func() nn.Module {
		rng := rand.New(rand.NewSource(3))
		return nn.NewSequential(nn.NewLinear(rng, "fc1", 16, 128), nn.Tanh{}, nn.NewLinear(rng, "fc2", 128, 128), nn.Tanh{}, nn.NewLinear(rng, "fc3", 128, 16))
	}
	for _, world := range []int{2, 4} {
		t.Run(worldName(world), func(t *testing.T) {
			meshes := testutil.Shaped{Latency: latency, Bandwidth: bandwidth}.Meshes(transport.NewInProcMeshes(world))
			groups := make([]comm.ProcessGroup, world)
			for r, m := range meshes {
				groups[r] = comm.NewGroup(m, comm.Options{})
			}
			t.Cleanup(func() {
				for _, g := range groups {
					g.Close()
				}
			})
			rng := rand.New(rand.NewSource(5))
			x, y := tensor.RandN(rng, 1, world, 16), tensor.RandN(rng, 1, world, 16)
			wrappers := make([]*FSDP, world)
			runRanks(t, world, func(rank int) error {
				f, err := New(build(), groups[rank], Options{Strategy: ZeRO3, BucketCapBytes: -1, LR: tLR, Momentum: tMomentum})
				if err != nil {
					return err
				}
				wrappers[rank] = f
				for step := range fitSteps + 1 {
					if got := f.Stats().Link; got != (reduce.Link{}) {
						return fmt.Errorf("step %d: fitted %+v before the probe's %d steps", step, got, fitSteps)
					}
					if rank == world-1 {
						time.Sleep(skew)
					}
					in, want := autograd.Constant(shardRows(x, rank, 1)), autograd.Constant(shardRows(y, rank, 1))
					if err := f.Backward(autograd.MSELoss(f.Forward(in), want)); err != nil {
						return err
					}
				}
				return nil
			})
			w := float64(world)
			alpha, beta := (w-1)*latency.Seconds(), (w-1)/w/bandwidth
			got := wrappers[0].Stats().Link
			t.Logf("fitted α %.3f ms (want %.3f), β %.3g s/B (want %.3g)", got.Alpha*1e3, alpha*1e3, got.Beta, beta)
			if got.Alpha < alpha || got.Alpha > alpha+(w-1)*overshoot.Seconds() || math.Abs(got.Beta-beta) > 0.4*beta {
				t.Fatalf("fitted α %.3f ms and β %.3g s/B, want %.3f ms (+%v a hop) and %.3g (±40 %%)", got.Alpha*1e3, got.Beta, alpha*1e3, overshoot, beta)
			}
			for rank, f := range wrappers {
				if f.Stats().Link != got {
					t.Fatalf("rank %d fitted %+v, rank 0 %+v", rank, f.Stats().Link, got)
				}
			}
			runRanks(t, world, func(rank int) error { return wrappers[rank].Materialize() })
			again := inProcGroups(t, world)
			runRanks(t, world, func(rank int) error {
				if err := wrappers[rank].Rebind(again[rank]); err != nil {
					return err
				}
				if got := wrappers[rank].Stats().Link; got != (reduce.Link{}) {
					return fmt.Errorf("after Rebind the plan is for %+v, want no link", got)
				}
				return nil
			})
		})
	}
}

// TestFailedLinkExchangeSurfacesFromBackward: the exchange that ends the
// probe is a collective like any other. On a group aborted after the
// probe's steps, the Forward that would run it records the failure,
// Backward returns it, and the plan stays the one made for no link.
func TestFailedLinkExchangeSurfacesFromBackward(t *testing.T) {
	const world = 2
	groups := inProcGroups(t, world)
	batches, labels := mlpFixture.makeData(world, fitSteps+1)
	wrappers := make([]*FSDP, world)
	runRanks(t, world, func(rank int) error {
		f, err := New(mlpFixture.build(), groups[rank], Options{Strategy: ZeRO3, BucketCapBytes: mlpFixture.cap, LR: tLR, Momentum: tMomentum})
		if err != nil {
			return err
		}
		wrappers[rank] = f
		return fsdpTrainRank(f, rank, batches[:fitSteps], labels[:fitSteps])
	})
	for _, g := range groups {
		if err := comm.AbortGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	runRanks(t, world, func(rank int) error {
		f := wrappers[rank]
		err := fsdpTrainRank(f, rank, batches[fitSteps:], labels[fitSteps:])
		if err == nil || !strings.Contains(err.Error(), "fsdp: forward: exchanging link samples") {
			return fmt.Errorf("step on an aborted group returned %v, want the exchange's failure", err)
		}
		if got := f.Stats().Link; got != (reduce.Link{}) || len(f.inflight) != 0 {
			return fmt.Errorf("after the failed exchange the plan is for %+v with %d gathers in flight, want no link and none", got, len(f.inflight))
		}
		return nil
	})
}
