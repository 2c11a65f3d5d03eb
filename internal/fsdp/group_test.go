package fsdp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/reduce"
)

// TestGroupGatherMatchesPerBucket gathers groups of one to four buckets
// as one collective and holds every flat, bit for bit, to what a gather
// of that bucket alone leaves there, at worlds 1 to 5. One bucket per
// parameter of the MLP gives buckets of 3, 21, 7 and 35 elements: their
// chunks are uneven at every world above 1, so the staging pads, and the
// 3-element bucket leaves ranks 3 and 4 an empty chunk. The groups take
// their buckets out of order, as a plan's do. Each rank's owned chunks
// hold distinct values, so a chunk unstaged at the wrong offset or from
// the wrong peer cannot come out right.
func TestGroupGatherMatchesPerBucket(t *testing.T) {
	for world := 1; world <= 5; world++ {
		t.Run(worldName(world), func(t *testing.T) {
			groups := inProcGroups(t, world)
			runRanks(t, world, func(rank int) error {
				f, err := New(buildMLP(3, tIn, tHidden, tOut), groups[rank], Options{Strategy: ZeRO3, BucketCapBytes: -1})
				if err != nil {
					return err
				}
				elems := f.Assignment().BucketElems
				if fmt.Sprint(elems) != "[3 21 7 35]" {
					return fmt.Errorf("buckets of %v elements, want [3 21 7 35]", elems)
				}
				for _, buckets := range [][]int{{2}, {3, 0}, {0, 3}, {1, 3, 2}, {3, 1, 0, 2}, {0, 1, 2, 3}} {
					// Sharded, with distinct values in the owned chunks.
					f.shardAll()
					for b, flat := range f.flats {
						for i := f.ownedLo[b]; i < f.ownedHi[b]; i++ {
							flat[i] = float32(100*b+i) + 0.25
						}
					}
					want := make([][]float32, len(elems))
					for _, b := range buckets {
						want[b] = slices.Clone(f.flats[b])
						if err := f.sg.AllGatherV(want[b]).Wait(); err != nil {
							return err
						}
					}
					g := group{Collective: &reduce.Collective{Kind: reduce.AllGatherV, Buckets: buckets}, staging: make([]float32, reduce.GatherElems(elems, buckets, world))}
					f.launch(&g)
					if err := f.drain(); err != nil {
						return err
					}
					resident := f.stats.ShardParamBytes
					for b, flat := range f.flats {
						if want[b] == nil {
							if f.state[b] != sharded {
								return fmt.Errorf("group %v: bucket %d, outside it, stands at %v", buckets, b, f.state[b])
							}
							continue
						}
						resident += f.nonOwnedBytes(b)
						if f.state[b] != gathered {
							return fmt.Errorf("group %v: bucket %d stands at %v, want gathered", buckets, b, f.state[b])
						}
						for i := range flat {
							if math.Float32bits(flat[i]) != math.Float32bits(want[b][i]) || flat[i] != float32(100*b+i)+0.25 {
								return fmt.Errorf("group %v: bucket %d element %d is %v, its own gather's is %v", buckets, b, i, flat[i], want[b][i])
							}
						}
					}
					if f.residentParam != resident || len(f.inflight) != 0 {
						return fmt.Errorf("group %v: %d bytes resident and %d gathers in flight, want %d and none", buckets, f.residentParam, len(f.inflight), resident)
					}
				}
				return nil
			})
		})
	}
}

// gatherBuffers passes every collective on and records the buffers
// AllGatherV runs on.
type gatherBuffers struct {
	comm.ShardedGroup
	bufs [][]float32
}

func (g *gatherBuffers) AllGatherV(data []float32) comm.Work {
	g.bufs = append(g.bufs, data)
	return g.ShardedGroup.AllGatherV(data)
}

// TestWarmStepAllocatesNoStaging: a ZeRO-3 step stages its groups in the
// buffers the wrapper allocated when it was built. Every gather of a
// warm step runs either on one bucket's flat or on the whole staging of
// one of the plan's groups, at the address it had before the first step.
func TestWarmStepAllocatesNoStaging(t *testing.T) {
	const world = 3
	groups := inProcGroups(t, world)
	batches, labels := bertFixture.makeData(world, 3)
	runRanks(t, world, func(rank int) error {
		pg := &gatherBuffers{ShardedGroup: groups[rank].(comm.ShardedGroup)}
		f, err := New(bertFixture.build(), pg, Options{Strategy: ZeRO3, BucketCapBytes: bertFixture.cap, LR: tLR, Momentum: tMomentum})
		if err != nil {
			return err
		}
		installed := map[*float32]int{} // a buffer's first element → its length
		for _, g := range f.groups {
			if len(g.Buckets) > 1 {
				installed[&g.staging[0]] = len(g.staging)
			}
		}
		for _, flat := range f.flats {
			installed[&flat[0]] = len(flat)
		}
		if len(installed) != f.NumBuckets()+1 {
			return fmt.Errorf("%d buffers to gather on, want the %d flats and u0's group's staging", len(installed), f.NumBuckets())
		}
		for i := range batches {
			pg.bufs = pg.bufs[:0]
			x := autograd.Constant(shardRows(batches[i], rank, tPerRank))
			y := autograd.Constant(shardRows(labels[i], rank, tPerRank))
			if err := f.Backward(autograd.MSELoss(f.Forward(x), y)); err != nil {
				return err
			}
			if i == 0 {
				continue
			}
			if len(pg.bufs) != len(f.groups) {
				return fmt.Errorf("step %d ran %d gathers, want one per launch group, %d", i, len(pg.bufs), len(f.groups))
			}
			for _, buf := range pg.bufs {
				if n, ok := installed[&buf[0]]; !ok || n != len(buf) {
					return fmt.Errorf("step %d gathered on a buffer of %d elements that the wrapper did not install", i, len(buf))
				}
			}
		}
		return nil
	})
}

// TestStatsReportStaging: the launch groups' staging is memory a rank
// holds beside its shards and gathered buckets, and Stats says how much:
// every region of the arena. On the benchmark's layout at world 2, as
// installed, before a link is measured, that is u0's group of buckets 3
// and 2, 2·(99 072 + 99 136) elements: 1 585 664 bytes a rank.
func TestStatsReportStaging(t *testing.T) {
	const world = 2
	groups := inProcGroups(t, world)
	for _, c := range []struct {
		strategy Strategy
		want     int // bytes; -1 where only the sum of the regions is pinned
	}{{ZeRO3, 1585664}, {ZeRO2, -1}} {
		runRanks(t, world, func(rank int) error {
			f, err := New(bertFixture.build(), groups[rank], Options{Strategy: c.strategy, BucketCapBytes: bertFixture.cap, LR: tLR})
			if err != nil {
				return err
			}
			regions := 0
			for _, g := range f.groups {
				regions += 4 * len(g.staging)
			}
			if got := f.Stats().Link; got != (reduce.Link{}) {
				return fmt.Errorf("%s: installed for the link %+v, want none", c.strategy, got)
			}
			if got := f.Stats().StagingBytes; got != regions || (c.want >= 0 && got != c.want) {
				return fmt.Errorf("%s: Stats reports %d staging bytes; the groups hold %d, want %d", c.strategy, got, regions, c.want)
			}
			return nil
		})
	}
}
