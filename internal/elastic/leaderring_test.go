package elastic

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/store"
)

// runLeaderRingRefPhase is runCompressedRefPhase with the Hierarchical
// algorithm over an explicit multi-level host layout: the compressed
// leader ring runs among the top-level leaders while intra-level
// phases stay exact, and SetProcessGroup between phases carries the
// error-feedback residuals like the elastic agent's swap does.
func runLeaderRingRefPhase(t *testing.T, workers []*refWorker, start, end int64, hosts []string) {
	t.Helper()
	world := len(workers)
	opts := comm.Options{Algorithm: comm.Hierarchical, Topology: comm.NewTopology(hosts)}
	groups := comm.NewInProcGroups(world, opts)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := range workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := workers[r]
			if w.d == nil {
				d, err := ddp.New(w.model, groups[r], ddp.Options{
					BucketCapBytes:       testBucketCap,
					SkipInitialBroadcast: true,
					NewCodec:             oneBitFactory,
				})
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
				if err := sharedBatchStep(w.d, w.opt, s); err != nil {
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

// TestTopologyOptionsBuildsMultiLevelFromMemberHosts: structured "/"
// labels published as rendezvous member hosts must rebuild an N-level
// topology in the regenerated group's options — the plumbing that lets
// pod/rack/host scheduling survive membership changes.
func TestTopologyOptionsBuildsMultiLevelFromMemberHosts(t *testing.T) {
	a := &Assignment{
		World: 3,
		Members: []Member{
			{ID: "w0", Host: "p0/r0/h0"},
			{ID: "w1", Host: "p0/r1/h1"},
			{ID: "w2", Host: "p1/r2/h2"},
		},
	}
	got := topologyOptions(a)
	if got.Topology == nil {
		t.Fatal("no topology derived from structured member hosts")
	}
	if got.Topology.Levels() != 3 {
		t.Fatalf("Levels() = %d, want 3", got.Topology.Levels())
	}
	pods := map[string]bool{}
	for _, h := range got.Topology.Hosts() {
		pods[strings.SplitN(h, "/", 2)[0]] = true
	}
	if len(pods) != 2 {
		t.Fatalf("top-level groups = %d, want 2 pods", len(pods))
	}
}

// TestElasticReconfigPreservesLeaderRingResiduals is the acceptance
// scenario composing the compressed leader ring with elastic recovery:
// three workers on three distinct pods (structured three-level labels,
// so ALL ranks are top-level leaders and the leader ring spans
// everyone) train with the Hierarchical algorithm and wire-level 1-bit
// compression. One worker leaves mid-run; survivors re-rendezvous,
// rebuild the multi-level topology from the new round's member hosts,
// and SyncResiduals carries the accumulated quantization error into
// the new generation. The run must match — bitwise, parameters AND
// residuals — a reference that replays the captured layouts with the
// same algorithm and codec. Dropping residuals at the reconfiguration
// (or rebuilding the topology flat) diverges at the first
// post-recovery quantization.
func TestElasticReconfigPreservesLeaderRingResiduals(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 3 // leaver's last completed step
	)
	hostOf := map[string]string{
		"w0": "p0/r0/h0",
		"w1": "p1/r1/h1",
		"w2": "p2/r2/h2",
	}

	// Per-step host layouts (by rank) of the groups that actually ran —
	// the ground truth for both the reference replay and the
	// multi-level-rendezvous assertion.
	var mu sync.Mutex
	stepTopo := make(map[int64][]string)

	workers := make([]*testWorker, 3)
	for i := range workers {
		id := fmt.Sprintf("w%d", i)
		cfg := testConfig(st, reg, id, 2, 3)
		cfg.Host = hostOf[id]
		cfg.Replica = oneBitReplica
		cfg.Builder = &algoBuilder{reg, comm.Hierarchical}
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
					w.agent.Leave()
				}
				return sharedStep(ctx)
			})
			errs[i] = w.agent.Run(total, step)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Every generation's published layout must round-trip the structured
	// labels: three levels both before and after the departure.
	for s := int64(0); s < total; s++ {
		hosts := stepTopo[s]
		wantWorld := 3
		if s > k {
			wantWorld = 2
		}
		if len(hosts) != wantWorld {
			t.Fatalf("step %d layout %v, want world %d", s, hosts, wantWorld)
		}
		if topo := comm.NewTopology(hosts); topo.Levels() != 3 {
			t.Fatalf("step %d: rendezvous hosts %v rebuilt %d level(s), want 3", s, hosts, topo.Levels())
		}
	}

	// Reference: replay the captured layouts phase by phase.
	ref := newRefWorkers(3)
	runLeaderRingRefPhase(t, ref, 0, k+1, stepTopo[0])
	runLeaderRingRefPhase(t, ref[:2], k+1, total, stepTopo[k+1])

	wantParams := flattenParams(ref[0].model)
	wantRes := ref[0].d.ResidualState()
	if !anyNonZero(wantRes) {
		t.Fatal("reference accumulated no residual; test is vacuous")
	}
	for i, w := range workers[:2] {
		assertSameParams(t, fmt.Sprintf("survivor%d-params", i), flattenParams(w.model), wantParams)
		assertSameResiduals(t, fmt.Sprintf("survivor%d", i), residualsOf(t, w), wantRes)
	}
}
