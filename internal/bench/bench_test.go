package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/hw"
)

func TestFig2CurvesShape(t *testing.T) {
	nccl := Fig2CommCurve(hw.NCCLLike)
	if len(nccl) < 8 {
		t.Fatalf("too few points: %d", len(nccl))
	}
	// NCCL monotonically improves with larger per-op tensors (Fig 2a).
	for i := 1; i < len(nccl); i++ {
		if nccl[i].TotalSeconds >= nccl[i-1].TotalSeconds {
			t.Fatalf("NCCL curve not decreasing at %d params/op", nccl[i].ParamsPerOp)
		}
	}
	// Gloo improves then flattens (Fig 2b saturation).
	gloo := Fig2CommCurve(hw.GlooLike)
	first, last := gloo[0].TotalSeconds, gloo[len(gloo)-1].TotalSeconds
	if first < 10*last {
		t.Fatalf("Gloo small ops should be >>10x slower: %v vs %v", first, last)
	}
	mid := gloo[5].TotalSeconds // 300K params: near saturation
	if (mid-last)/last > 0.5 {
		t.Fatalf("Gloo should be near-saturated past 300K: %v vs %v", mid, last)
	}
}

func TestFig2ComputeCurves(t *testing.T) {
	gpu := Fig2ComputeCurve(hw.GPU)
	cpu := Fig2ComputeCurve(hw.CPU)
	if gpu[len(gpu)-1].MedianSeconds < 0.2 || gpu[len(gpu)-1].MedianSeconds > 0.3 {
		t.Fatalf("GPU backward total = %v, want ~0.25", gpu[len(gpu)-1].MedianSeconds)
	}
	if cpu[len(cpu)-1].MedianSeconds < 5 || cpu[len(cpu)-1].MedianSeconds > 7 {
		t.Fatalf("CPU backward total = %v, want ~6", cpu[len(cpu)-1].MedianSeconds)
	}
	for _, p := range gpu {
		if p.MinSeconds > p.MedianSeconds || p.MedianSeconds > p.MaxSeconds {
			t.Fatal("range band inverted")
		}
	}
}

func TestFig6MatchesPaperShape(t *testing.T) {
	rows, err := Fig6Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Non-overlap segments must sum to ~1.
		sum := r.Forward + r.BackwardCompute + r.Comm + r.Optimizer
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s/%v: segments sum to %v", r.Model, r.Backend, sum)
		}
		// Backward (compute + comm) dominates the iteration.
		if r.BackwardCompute+r.Comm < 0.5 {
			t.Fatalf("%s/%v: backward share %v, want dominant", r.Model, r.Backend, r.BackwardCompute+r.Comm)
		}
		// Overlap always helps.
		if r.SpeedupPct <= 0 || r.OverlapTotal >= 1 {
			t.Fatalf("%s/%v: no overlap speedup", r.Model, r.Backend)
		}
		// Plausible band around the paper's 21.5-38.0%.
		if r.SpeedupPct < 10 || r.SpeedupPct > 60 {
			t.Fatalf("%s/%v: speedup %.1f%% outside band", r.Model, r.Backend, r.SpeedupPct)
		}
	}
	// NCCL speedup should exceed Gloo's for the same model (paper: the
	// gain shrinks on Gloo since communication dominates).
	if rows[0].SpeedupPct <= rows[1].SpeedupPct {
		t.Fatalf("ResNet: NCCL speedup (%v) should exceed Gloo (%v)", rows[0].SpeedupPct, rows[1].SpeedupPct)
	}
}

func TestBucketSweepBestInMiddle(t *testing.T) {
	rows, err := BucketSizeSweep(16, 60)
	if err != nil {
		t.Fatal(err)
	}
	// For ResNet50/NCCL the best median must not be at 0MB (Fig 7a);
	// for ResNet50/Gloo, 5MB must beat 25MB and 50MB (Fig 7b).
	medians := map[string]map[int]float64{}
	for _, r := range rows {
		key := r.Model + "/" + r.Backend.String()
		if medians[key] == nil {
			medians[key] = map[int]float64{}
		}
		medians[key][r.CapMB] = r.Summary.Median
	}
	rn := medians["resnet50/nccl"]
	best := 0
	for mb, v := range rn {
		if v < rn[best] {
			best = mb
		}
	}
	if best == 0 {
		t.Fatalf("ResNet50/NCCL best bucket is 0MB: %v", rn)
	}
	rg := medians["resnet50/gloo"]
	if rg[5] >= rg[25] || rg[5] >= rg[50] {
		t.Fatalf("ResNet50/Gloo 5MB should win: %v", rg)
	}
	// BERT/NCCL: large buckets (50MB) beat small (5MB) — Fig 7c.
	bn := medians["bert-large/nccl"]
	if bn[50] >= bn[5] {
		t.Fatalf("BERT/NCCL 50MB (%v) should beat 5MB (%v)", bn[50], bn[5])
	}
}

func TestFig9ScalingFactors(t *testing.T) {
	points, err := Fig9Scalability(16)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int]float64{}
	for _, p := range points {
		key := p.Model + "/" + p.Backend.String()
		if byKey[key] == nil {
			byKey[key] = map[int]float64{}
		}
		byKey[key][p.World] = p.MeanSeconds
	}
	// ResNet50/NCCL: ~2x slowdown at 256 (scaling factor ~128).
	rn := byKey["resnet50/nccl"]
	slow := rn[256] / rn[1]
	if slow < 1.5 || slow > 3.5 {
		t.Fatalf("ResNet50/NCCL 256-GPU slowdown = %v, want ~2x", slow)
	}
	// Gloo degrades much more, and BERT/Gloo worst of all (paper: ~3x
	// ResNet, ~6x BERT).
	rgSlow := byKey["resnet50/gloo"][256] / byKey["resnet50/gloo"][1]
	bgSlow := byKey["bert-large/gloo"][256] / byKey["bert-large/gloo"][1]
	if rgSlow < slow {
		t.Fatalf("Gloo (%v) should degrade worse than NCCL (%v)", rgSlow, slow)
	}
	if bgSlow < rgSlow {
		t.Fatalf("BERT/Gloo (%v) should degrade worse than ResNet/Gloo (%v)", bgSlow, rgSlow)
	}
	// The 128 -> 256 jump exists for NCCL (shared entitlement).
	if rn[256] < 1.15*rn[128] {
		t.Fatalf("no 128->256 jump: %v -> %v", rn[128], rn[256])
	}
}

func TestFig10SavingsAt256(t *testing.T) {
	points, err := Fig10SkipSync(24)
	if err != nil {
		t.Fatal(err)
	}
	at := func(b hw.Backend, every, world int) float64 {
		for _, p := range points {
			if p.Backend == b && p.SyncEvery == every && p.World == world {
				return p.MeanSeconds
			}
		}
		t.Fatalf("missing point %v/%d/%d", b, every, world)
		return 0
	}
	// Paper: 38% (NCCL) and 57% (Gloo) speedup at 256 GPUs with sync
	// every 8. Accept generous bands around those.
	ncclSave := 1 - at(hw.NCCLLike, 8, 256)/at(hw.NCCLLike, 1, 256)
	glooSave := 1 - at(hw.GlooLike, 8, 256)/at(hw.GlooLike, 1, 256)
	if ncclSave < 0.15 || ncclSave > 0.60 {
		t.Fatalf("NCCL sync-every-8 saving = %.0f%%, want ~38%%", ncclSave*100)
	}
	if glooSave < 0.35 || glooSave > 0.80 {
		t.Fatalf("Gloo sync-every-8 saving = %.0f%%, want ~57%%", glooSave*100)
	}
	if glooSave <= ncclSave {
		t.Fatal("Gloo should benefit more from skipping sync than NCCL")
	}
	// More skipping always helps average latency.
	if at(hw.NCCLLike, 4, 256) <= at(hw.NCCLLike, 8, 256) {
		t.Fatal("sync-every-8 should beat sync-every-4")
	}
}

func TestFig11ConvergenceRealTraining(t *testing.T) {
	// Real DDP training: small-batch panel — all sync frequencies reach
	// a loss far below the ln(10) starting point.
	curves, err := Fig11Panel(2, 8, 0.02, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Raw) != 80 || len(c.Smoothed) != 80 {
			t.Fatalf("%s: curve lengths %d/%d", c.Label, len(c.Raw), len(c.Smoothed))
		}
		if c.FinalLoss >= c.Smoothed[0] {
			t.Fatalf("%s: loss did not decrease (%v -> %v)", c.Label, c.Smoothed[0], c.FinalLoss)
		}
	}
}

func TestFig12RoundRobinShape(t *testing.T) {
	points, err := Fig12RoundRobin()
	if err != nil {
		t.Fatal(err)
	}
	at := func(model string, b hw.Backend, groups, world int) float64 {
		for _, p := range points {
			if p.Model == model && p.Backend == b && p.Groups == groups && p.World == world {
				return p.MedianSeconds
			}
		}
		t.Fatalf("missing %s/%v/rr%d/%d", model, b, groups, world)
		return 0
	}
	// BERT/NCCL: rr3 clearly beats rr1 at 16 GPUs (paper: 33%).
	gain := 1 - at("bert-large", hw.NCCLLike, 3, 16)/at("bert-large", hw.NCCLLike, 1, 16)
	if gain < 0.10 || gain > 0.60 {
		t.Fatalf("BERT/NCCL rr3 gain = %.0f%%, want ~33%%", gain*100)
	}
	// ResNet50/NCCL: negligible difference (<5%).
	rnGain := 1 - at("resnet50", hw.NCCLLike, 3, 16)/at("resnet50", hw.NCCLLike, 1, 16)
	if rnGain > 0.08 {
		t.Fatalf("ResNet50/NCCL rr3 gain = %.0f%%, paper says negligible", rnGain*100)
	}
	// ResNet50/Gloo: rr3 consistently at or below rr1.
	for _, world := range []int{8, 16, 32} {
		if at("resnet50", hw.GlooLike, 3, world) > at("resnet50", hw.GlooLike, 1, world)*1.001 {
			t.Fatalf("ResNet50/Gloo rr3 worse than rr1 at %d GPUs", world)
		}
	}
}

func TestHierarchicalSweepShowsCrossMachineRecovery(t *testing.T) {
	c := hw.DefaultCluster()
	rows := Sweep([]int{8, 16, 32, 64, 128, 256}, []int{1 << 12, 1 << 20, 1 << 24},
		nccl(c, comm.Ring), nccl(c, comm.Hierarchical))
	for _, r := range rows {
		if r.World <= 8 {
			// One server: the hierarchy is empty, the models must agree.
			if r.Speedup() != 1 {
				t.Fatalf("world %d elems %d: speedup %v inside one server", r.World, r.Elems, r.Speedup())
			}
			continue
		}
		if r.B >= r.A {
			t.Fatalf("world %d elems %d: hierarchical (%v) not beating flat (%v)", r.World, r.Elems, r.B, r.A)
		}
		// The acceptance bar: at >= 1M elements the recovery is the
		// structural NIC-share win, not a rounding artifact.
		if r.Elems >= 1<<20 && r.Speedup() < 2 {
			t.Fatalf("world %d elems %d: recovery only %.2fx", r.World, r.Elems, r.Speedup())
		}
	}
}

func TestHierarchicalIterationSweepHelpsMultiHostWorlds(t *testing.T) {
	rows, err := HierarchicalIterationSweep([]int{8, 32, 128}, []int{25})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.World <= 8 {
			if r.HierSeconds != r.FlatSeconds {
				t.Fatalf("world %d: iteration time differs inside one server", r.World)
			}
			continue
		}
		if r.HierSeconds >= r.FlatSeconds {
			t.Fatalf("world %d capMB %d: hierarchical iteration (%v) not faster than flat (%v)",
				r.World, r.CapMB, r.HierSeconds, r.FlatSeconds)
		}
	}
}

func TestDoubleTreeSweepMatchesAutoPolicyBands(t *testing.T) {
	// The modeled sweep must justify comm's Auto policy: double tree
	// wins the <=4Ki-element band at world >= 8, and the ring keeps
	// the bandwidth-bound band at shallow worlds.
	c := hw.DefaultCluster()
	rows := Sweep([]int{8, 32, 256}, []int{1 << 10, 1 << 12, 1 << 24},
		nccl(c, comm.Ring), nccl(c, comm.DoubleTree))
	for _, r := range rows {
		if r.Elems <= 4<<10 && r.B >= r.A {
			t.Fatalf("world %d elems %d: double tree (%v) not beating ring (%v) in the small band",
				r.World, r.Elems, r.B, r.A)
		}
		if r.World == 8 && r.Elems == 1<<24 && r.A >= r.B {
			t.Fatalf("world 8 elems 16M: ring (%v) should win the bandwidth band over double tree (%v)",
				r.A, r.B)
		}
	}
}

func TestNLevelSweepLatencyWin(t *testing.T) {
	c := hw.DefaultCluster()
	rows := Sweep([]int{64}, []int{1 << 10, 1 << 12}, nccl(c, comm.Hierarchical), nccl(c, comm.Hierarchical, 2, 8))
	for _, r := range rows {
		if r.B >= r.A {
			t.Fatalf("world %d elems %d: three-level (%v) not beating two-level (%v) on small payloads",
				r.World, r.Elems, r.B, r.A)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1Taxonomy()
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Solution] = r
	}
	ddp := byName["PT DDP"]
	if !ddp.S || !ddp.I || !ddp.D || ddp.A || ddp.C || ddp.M {
		t.Fatalf("PT DDP schemes wrong: %+v", ddp)
	}
	zero := byName["ZeRO"]
	if !zero.D || !zero.M {
		t.Fatalf("ZeRO must be data+model parallel: %+v", zero)
	}
	gpipe := byName["GPipe"]
	if !gpipe.C || gpipe.A {
		t.Fatalf("GPipe must be cross-iteration sync: %+v", gpipe)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	for name, fn := range map[string]func(io.Writer) error{
		"fig2":         Fig2,
		"fig6":         Fig6,
		"fig12":        Fig12,
		"table1":       Table1,
		"hierarchical": HierarchicalAblation,
		"doubletree":   DoubleTreeAblation,
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() < 100 {
			t.Fatalf("%s: suspiciously short output", name)
		}
	}
	var buf bytes.Buffer
	if err := Fig7(&buf, 30); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "16 GPUs") {
		t.Fatal("Fig7 output missing world size")
	}
	buf.Reset()
	if err := Fig8(&buf, 30); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Fig9(&buf, 8); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Fig10(&buf, 8); err != nil {
		t.Fatal(err)
	}
}
