package elastic

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/store"
)

// runRefPhaseTopo is runRefPhase with an explicit AllReduce algorithm
// and host layout: the reference replays exactly the topology the
// elastic run's rendezvous produced, so the comparison is bitwise.
func runRefPhaseTopo(t *testing.T, workers []*refWorker, start, end int64, algo comm.Algorithm, hosts []string) {
	t.Helper()
	world := len(workers)
	opts := comm.Options{Algorithm: algo, Topology: comm.NewTopology(hosts)}
	groups := comm.NewInProcGroups(world, opts)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := range workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := workers[r]
			if w.d == nil {
				d, err := ddp.New(w.model, groups[r], ddp.Options{BucketCapBytes: testBucketCap, SkipInitialBroadcast: true})
				if err != nil {
					errs[r] = err
					return
				}
				w.d = d
			} else if err := w.d.SetProcessGroup(groups[r]); err != nil {
				errs[r] = err
				return
			}
			for s := start; s < end; s++ {
				if err := trainStep(w.d, w.opt, s, r, world); err != nil {
					errs[r] = fmt.Errorf("ref step %d: %w", s, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	for _, g := range groups {
		g.Close()
	}
}

// TestTopologyOptionsNeedsEveryMembersHost: a round whose members do
// not all publish a host (mixed versions) gets no topology rather than a
// guess.
func TestTopologyOptionsNeedsEveryMembersHost(t *testing.T) {
	none := topologyOptions(&Assignment{
		World:   2,
		Members: []Member{{ID: "a"}, {ID: "b", Host: "x"}},
	})
	if none.Topology != nil {
		t.Fatal("partial host info must not produce a topology")
	}
}

// TestElasticRecoveryWithTopologyAwareAllReduce is the acceptance test
// for topology plumbing through elastic recovery: three workers laid
// out over two simulated hosts train with the Hierarchical (and Auto)
// algorithm; one departs mid-run, survivors re-rendezvous, and the
// regenerated group rebuilds its comm.Topology from the new round's
// member hosts. Every executed step records the rank→host layout its
// group actually used; a reference run replays the identical layouts,
// so the final parameters must match BITWISE — any divergence between
// the rebuilt topology and the one the collectives ran with would show
// up as differing reduction order.
func TestElasticRecoveryWithTopologyAwareAllReduce(t *testing.T) {
	for _, algo := range []comm.Algorithm{comm.Hierarchical, comm.Auto} {
		t.Run(algo.String(), func(t *testing.T) {
			runElasticTopologyScenario(t, algo)
		})
	}
}

func runElasticTopologyScenario(t *testing.T, algo comm.Algorithm) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 3 // leaver's last completed step
	)
	hostOf := map[string]string{"w0": "hostA", "w1": "hostA", "w2": "hostB"}

	// stepTopo captures, per executed step, the host layout (by rank)
	// of the group that ran it — the ground truth the reference replays.
	var mu sync.Mutex
	stepTopo := make(map[int64][]string)

	workers := make([]*testWorker, 3)
	for i := range workers {
		id := fmt.Sprintf("w%d", i)
		cfg := testConfig(st, reg, id, 2, 3)
		cfg.Host = hostOf[id]
		cfg.Builder = &algoBuilder{reg, algo}
		workers[i] = newTestWorker(t, cfg)
	}
	victim := workers[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *testWorker) {
			defer wg.Done()
			step := fullWorld(w.agent, 3, func(ctx StepContext) error {
				hosts := w.agent.assignment().Hosts()
				if hosts == nil {
					return fmt.Errorf("step %d: assignment published no hosts", ctx.Step)
				}
				mu.Lock()
				stepTopo[ctx.Step] = hosts
				mu.Unlock()
				if w == victim && ctx.Step == k {
					w.agent.Leave() // departs after completing this step
				}
				return elasticStep(ctx)
			})
			errs[i] = w.agent.Run(int64(total), step)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for _, w := range workers[:2] {
		if got := w.agent.Step(); got != total {
			t.Fatalf("survivor finished at step %d, want %d", got, total)
		}
	}

	// The layouts themselves must reflect the rendezvous rounds: three
	// ranks over hostA+hostA+hostB before the departure, the two hostA
	// survivors after it.
	count := func(hosts []string, h string) int {
		n := 0
		for _, x := range hosts {
			if x == h {
				n++
			}
		}
		return n
	}
	for s := int64(0); s < total; s++ {
		hosts := stepTopo[s]
		switch {
		case s <= k:
			if len(hosts) != 3 || count(hosts, "hostA") != 2 || count(hosts, "hostB") != 1 {
				t.Fatalf("step %d layout = %v, want a permutation of hostA,hostA,hostB", s, hosts)
			}
		default:
			if len(hosts) != 2 || count(hosts, "hostA") != 2 {
				t.Fatalf("step %d layout = %v, want hostA,hostA", s, hosts)
			}
		}
	}

	// Reference: replay the captured layouts phase by phase.
	ref := newRefWorkers(3)
	sameLayout := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	start := int64(0)
	for s := int64(1); s <= total; s++ {
		if s == total || !sameLayout(stepTopo[s], stepTopo[start]) {
			hosts := stepTopo[start]
			runRefPhaseTopo(t, ref[:len(hosts)], start, s, algo, hosts)
			start = s
		}
	}

	want := flattenParams(ref[0].model)
	assertSameParams(t, "survivor0-vs-ref", flattenParams(workers[0].model), want)
	assertSameParams(t, "survivor1-vs-ref", flattenParams(workers[1].model), want)
}
