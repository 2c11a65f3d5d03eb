package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

// smokeSteps follow the first training step that building a cluster
// runs, so every workload trains for three steps.
const smokeSteps = 2

// raceSized holds, per workload, a narrower model of the same
// architecture with the bucket cap scaled to keep the bucket count.
var raceSized = map[string]struct {
	model             func(seed int64) nn.Module
	inCols, bucketCap int
}{
	"ddp_compute_inproc":   {func(seed int64) nn.Module { return models.NewMLP(seed, 64, 128, 10) }, 64, 25 << 20},
	"ddp_wide_inproc":      {func(seed int64) nn.Module { return models.NewMLP(seed, 128, 128, 128) }, 128, 64 << 10},
	"ddp_wide_tcp":         {func(seed int64) nn.Module { return models.NewMLP(seed, 128, 128, 128) }, 128, 64 << 10},
	"ddp_bert_shaped":      {func(seed int64) nn.Module { return models.NewTinyTransformer(seed, 32, 4, 64, 4) }, 32, 16 << 10},
	"zero3_bert_shaped":    {func(seed int64) nn.Module { return models.NewTinyTransformer(seed, 32, 4, 64, 4) }, 32, 16 << 10},
	"ddp_bert_shaped_fp16": {func(seed int64) nn.Module { return models.NewTinyTransformer(seed, 32, 4, 64, 4) }, 32, 16 << 10},
}

// smokeVariant is the workload a smoke test trains. Without the race
// detector that is the workload itself. Under it a step of the real
// models takes one to two seconds on the reference box (the detector
// instruments every tensor access), so the whole suite would take a
// minute; the tests then train the raceSized model over the workload's
// own transport, strategy, codec and decorators, which is the code the
// detector is there to watch.
func smokeVariant(t *testing.T, w *workload) *workload {
	if !raceEnabled {
		return w
	}
	small, ok := raceSized[w.name]
	if !ok {
		t.Fatalf("no race-sized model for workload %s", w.name)
	}
	v := *w
	v.model, v.inCols, v.bucketCap = small.model, small.inCols, small.bucketCap
	return &v
}

// smoke builds the workload, runs a few steps and applies the run's
// checks; it returns the cluster (closed) and the window for further
// assertions.
func smoke(t *testing.T, w *workload, pools [][]batch, traced bool) (*cluster, window) {
	t.Helper()
	c, err := buildCluster(w, 1, pools, traced)
	if err != nil {
		t.Fatalf("set-up: %v", err)
	}
	defer c.close()
	win, err := c.run(smokeSteps, traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkLosses(win); err != nil {
		t.Error(err)
	}
	if err := c.checkReplicas(); err != nil {
		t.Error(err)
	}
	wire := win.wire1.sub(win.wire0)
	if wire.bytes <= 0 {
		t.Errorf("the program's transport counters did not move: %+v", wire)
	}
	if link := win.link1.sub(win.link0); w.transport == shapedLink && link != wire {
		t.Errorf("shaped link counted %+v, the program %+v", link, wire)
	}
	return c, win
}

// TestSmokeEveryWorkload runs every workload for a few steps, untraced
// and traced, with the checks a real run applies, so the benchmark keeps
// compiling and stays correct as internal/ evolves.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := smokeVariant(t, w)
			pools := makePools(w, 1, smokeSteps+1)
			smoke(t, w, pools, false)
			c, win := smoke(t, w, pools, true)
			ts := analyzeTrace(c, win)
			if ts.err != nil {
				t.Error(ts.err)
			}
			wire := win.wire1.sub(win.wire0)
			if ts.totalBytes != wire.bytes || ts.totalFrames != wire.frames {
				t.Errorf("traced mesh counted %v bytes in %v frames, the program %v in %v", ts.totalBytes, ts.totalFrames, wire.bytes, wire.frames)
			}
		})
	}
}

func TestZeRO3MatchesDDPBitwise(t *testing.T) {
	w := smokeVariant(t, findWorkload("zero3_bert_shaped"))
	if err := checkZeRO3MatchesDDP(w, 1, makePools(w, 1, smokeSteps+1), smokeSteps); err != nil {
		t.Error(err)
	}
}

// TestTraceTree checks the shape of the span tree on a bucketed ddp
// workload: every span is finished and lies inside its parent, phases
// hang off steps, collectives off phases, frames off collectives, and a
// step launches exactly one comm.allreduce per bucket.
func TestTraceTree(t *testing.T) {
	w := smokeVariant(t, findWorkload("ddp_bert_shaped"))
	c, win := smoke(t, w, makePools(w, 1, smokeSteps+1), true)
	spans := c.rec.finished()
	parentKind := map[string]func(string) bool{
		spStep:      func(p string) bool { return p == "" },
		spForward:   func(p string) bool { return p == spStep },
		spBackward:  func(p string) bool { return p == spStep },
		spOptimizer: func(p string) bool { return p == spStep },
		opAllReduce: func(p string) bool { return p == spBackward },
		spSend:      isComm,
		spRecv:      isComm,
		spHold:      isComm,
	}
	allreduces := map[[2]int32]int{}
	seen := map[string]int{}
	for _, s := range spans {
		if s.Step < 0 {
			continue // set-up and warm-up traffic, outside any traced step
		}
		seen[s.Name]++
		if s.EndNS == 0 {
			t.Errorf("span %d (%s) not finished", s.ID, s.Name)
		}
		parent := ""
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			parent = p.Name
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("span %d (%s) [%d,%d] is outside its parent %s [%d,%d]", s.ID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
			if s.Rank != p.Rank || s.Step != p.Step {
				t.Errorf("span %d (%s) rank %d step %d under parent of rank %d step %d", s.ID, s.Name, s.Rank, s.Step, p.Rank, p.Step)
			}
		}
		if ok, known := parentKind[s.Name]; !known || !ok(parent) {
			t.Errorf("span %d (%s) has parent %q", s.ID, s.Name, parent)
		}
		if s.Name == opAllReduce {
			allreduces[[2]int32{s.Rank, s.Step}]++
		}
	}
	for _, name := range []string{spStep, spForward, spBackward, spOptimizer, opAllReduce, spSend, spRecv, spHold} {
		if seen[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	buckets := c.ranks[0].buckets
	if buckets < 2 {
		t.Fatalf("workload has %d buckets; the test needs a bucketed model", buckets)
	}
	if len(allreduces) != world*win.steps {
		t.Errorf("comm.allreduce spans in %d rank-steps, want %d", len(allreduces), world*win.steps)
	}
	for key, n := range allreduces {
		if n != buckets {
			t.Errorf("rank %d step %d: %d comm.allreduce spans for %d buckets", key[0], key[1], n, buckets)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// program's metric catalogue equal and inside the file's format limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var listed []*workload
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w)
		}
	}
	if len(doc.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the program", len(doc.Workloads), len(listed))
	}
	for i, w := range listed {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, got.Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q breaks the format limits", w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) || got.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || d.bound > 0.25 {
			t.Errorf("metric %q breaks the format limits", d.name)
		}
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.higher) {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q breaks the format limits", d.name)
		}
	}
}
