package comm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/testutil/leakcheck"
	"repro/internal/transport"
)

// benchSchemaVersion stamps the JSON envelope so downstream consumers
// (ci/bench_check.sh, dashboards) can detect incompatible layouts
// instead of misreading renamed fields.
const benchSchemaVersion = 2

// benchEnvelope is the stable on-disk shape of both bench JSON files:
// a version plus the record list.
type benchEnvelope struct {
	SchemaVersion int `json:"schema_version"`
	Records       any `json:"records"`
}

// benchRecord is one AllReduce benchmark measurement; the collected
// set is written to BENCH_allreduce.json at the repository root (see
// TestMain) so the collective layer's perf trajectory is tracked
// across PRs.
type benchRecord struct {
	Transport string `json:"transport"`
	Algorithm string `json:"algorithm"`
	// Codec names the wire codec when the row ran a compressed
	// collective (compressed-hierarchical rows); empty otherwise.
	Codec               string  `json:"codec,omitempty"`
	World               int     `json:"world"`
	Elems               int     `json:"elems"`
	NsPerOp             float64 `json:"ns_per_op"`
	CrossHostBytesPerOp int64   `json:"cross_host_bytes_per_op"`
	// The runtime metrics plane's view of the same ops: a summary of
	// the comm_allreduce_duration_seconds histogram restricted to this
	// run's timed loop (per-rank observations, so HistCount ≈ world ×
	// b.N). Bench rows and live /metrics scrapes thereby share one
	// schema — a dashboard percentile and a bench percentile come from
	// the identical instrument.
	HistP50Ns float64 `json:"hist_p50_ns"`
	HistP99Ns float64 `json:"hist_p99_ns"`
	HistCount uint64  `json:"hist_count"`
}

// histDelta returns the distribution observed between two snapshots of
// the same histogram (after minus before, bucket by bucket).
func histDelta(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]uint64, len(after.Counts)),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
	}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// compressionRecord is one BenchmarkCompressedAllReduce measurement:
// the REAL bytes each codec puts on the TCP wire per op, next to the
// uncompressed Ring baseline — the ablation that replaces the
// modeled-only CompressionRatio numbers.
type compressionRecord struct {
	Codec          string  `json:"codec"`
	World          int     `json:"world"`
	Elems          int     `json:"elems"`
	NsPerOp        float64 `json:"ns_per_op"`
	WireBytesPerOp int64   `json:"wire_bytes_per_op"`
	RatioVsRing    float64 `json:"ratio_vs_ring"`
}

var (
	benchMu         sync.Mutex
	benchRecords    []benchRecord
	compressRecords []compressionRecord
)

// repoRoot walks up from the test's working directory (the package
// dir) to the directory holding go.mod, so the bench JSON lands at the
// repository root regardless of which package the bench ran in. Falls
// back to "." when no module root is found.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// TestMain exists to flush the benchmark summaries: after a -bench
// run, AllReduce benchmark records land in BENCH_allreduce.json and
// BenchmarkCompressedAllReduce records in BENCH_compression.json, both
// at the repository root and wrapped in a versioned schema envelope
// (override the paths with BENCH_ALLREDUCE_OUT / BENCH_COMPRESSION_OUT).
// Plain `go test` runs collect nothing and write nothing.
func TestMain(m *testing.M) {
	// leakcheck.Run wraps m.Run so a passing suite still fails when a
	// collective left a reducer or socket goroutine behind; the bench
	// JSON flush below runs either way.
	code := leakcheck.Run(m, leakcheck.Timeout(10*time.Second))
	benchMu.Lock()
	records := benchRecords
	compress := compressRecords
	benchMu.Unlock()
	flushJSON := func(envKey, fallback string, v any) {
		out := os.Getenv(envKey)
		if out == "" {
			out = filepath.Join(repoRoot(), fallback)
		}
		env := benchEnvelope{SchemaVersion: benchSchemaVersion, Records: v}
		if data, err := json.MarshalIndent(env, "", "  "); err == nil {
			if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "comm: writing %s: %v\n", out, err)
			}
		}
	}
	if len(records) > 0 {
		flushJSON("BENCH_ALLREDUCE_OUT", "BENCH_allreduce.json", records)
	}
	if len(compress) > 0 {
		flushJSON("BENCH_COMPRESSION_OUT", "BENCH_compression.json", compress)
	}
	os.Exit(code)
}

// benchWorldSize: the default sweep runs 4 ranks over 2 simulated
// hosts, so the topology-aware rows exercise real hierarchy and the
// cross-"host" byte counter has boundaries to observe — over TCP every
// rank is a loopback socket, so "host" is the simulated label, exactly
// like a single-machine rehearsal of a multi-host job.
const benchWorldSize = 4

// benchHosts lays `world` ranks out two per simulated host.
func benchHosts(world int) []string {
	hosts := make([]string, world)
	for r := range hosts {
		hosts[r] = fmt.Sprintf("h%d", r/2)
	}
	return hosts
}

// BenchmarkAllReduceAlgorithms sweeps algorithm x payload size over
// in-proc and TCP meshes. Alongside ns/op it records the bytes sent
// across the simulated host boundary per op — the quantity the
// Hierarchical algorithm exists to shrink.
func BenchmarkAllReduceAlgorithms(b *testing.B) {
	sizes := []int{1 << 10, 1 << 17, 1 << 20}
	algos := []Algorithm{Ring, Tree, DoubleTree, Naive, Hierarchical, Auto}
	for _, tr := range []string{"inproc", "tcp"} {
		for _, algo := range algos {
			for _, n := range sizes {
				name := fmt.Sprintf("%s/%s/%d", tr, algo, n)
				b.Run(name, func(b *testing.B) {
					benchAllReduce(b, tr, algo, n, benchWorldSize)
				})
			}
		}
	}
}

// BenchmarkAllReduceDeepWorld is the small-payload latency comparison
// on deep worlds, the evidence behind two constants. Ring against
// DoubleTree at world 8: the trees' 2·ceil(log2(k+1)) rounds undercut
// the ring's 2(k-1) serial steps (world 4 is the break-even point: 6
// either way), and ci/bench_check.sh gates on it — double-tree p50 must
// beat Ring at <= 4Ki elements on the TCP mesh. Tree against DoubleTree
// at worlds 8 and 16: a payload of one pipeline chunk gets no overlap
// from the second tree, only twice the frames, which is why Auto sends
// small payloads to Tree at every world (see chooseAlgorithm).
func BenchmarkAllReduceDeepWorld(b *testing.B) {
	sizes := []int{1 << 10, 1 << 12}
	for _, tr := range []string{"inproc", "tcp"} {
		for _, world := range []int{8, 16} {
			for _, algo := range []Algorithm{Ring, Tree, DoubleTree} {
				if algo == Ring && world != 8 {
					continue // the gate's rows; Ring only falls further behind
				}
				for _, n := range sizes {
					name := fmt.Sprintf("%s/world%d/%s/%d", tr, world, algo, n)
					b.Run(name, func(b *testing.B) {
						benchAllReduce(b, tr, algo, n, world)
					})
				}
			}
		}
	}
}

// BenchmarkRingPairCrossover is the measurement behind
// ringPairMaxElems: two ranks, both transports, a quarter of the cutoff,
// the cutoff and four times it, each under both branches of
// ringAllReduceSteps — the one exchange (ringPairStep) and the two ring
// passes — whatever the generator would pick at that size. Next to
// ns/op it reports γ, the per-element cost of the fold the exchange
// runs twice, timed with both ranks folding at once as they do inside
// the collective. The exchange saves a hop α and spends γ·n/2, so on a
// mesh whose hops are free pair − twopass at the cutoff is the most the
// constant can cost, and n* = 2α/γ is where it stops paying on a link
// whose hop costs α (ARCHITECTURE.md has the numbers).
func BenchmarkRingPairCrossover(b *testing.B) {
	for _, tr := range []string{"inproc", "tcp"} {
		for _, n := range []int{ringPairMaxElems / 4, ringPairMaxElems, 4 * ringPairMaxElems} {
			for _, sched := range []string{"pair", "twopass"} {
				b.Run(fmt.Sprintf("%s/%d/%s", tr, n, sched), func(b *testing.B) {
					benchRingPair(b, tr, n, sched == "pair")
				})
			}
		}
	}
}

func benchRingPair(b *testing.B, tr string, n int, pair bool) {
	meshes := benchMeshes(b, tr, 2)
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	var bufs, srcs [2][]float32
	var steps [2][]step
	for r := range bufs {
		bufs[r], srcs[r] = make([]float32, n), make([]float32, n)
		steps[r] = append(ringSteps(r, 2, n, r-1, true), ringSteps(r, 2, n, r, false)...)
		if pair {
			steps[r] = []step{ringPairStep(r, n)}
		}
	}
	// both runs fn on the two ranks at once and returns when both are done.
	both := func(fn func(r int)) {
		var wg sync.WaitGroup
		for r := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(r)
			}()
		}
		wg.Wait()
	}
	// Medians: the reference box's speed flips under a mean.
	median := func(runs int, fn func()) float64 {
		ns := make([]float64, runs)
		for i := range ns {
			start := time.Now()
			fn()
			ns[i] = float64(time.Since(start).Nanoseconds())
		}
		slices.Sort(ns)
		return ns[runs/2]
	}
	fold := func() { both(func(r int) { reduceInto(bufs[r][:n/2], srcs[r][:n/2], Sum) }) }
	fold() // faults the pages in
	gamma := median(21, fold) / float64(n/2)

	tag := uint64(0)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	p50 := median(b.N, func() {
		tag++
		both(func(r int) {
			if err := stepsAllReduce(meshes[r], tag, "bench", bufs[r], Sum, steps[r]); err != nil {
				b.Errorf("rank %d: %v", r, err)
			}
		})
	})
	b.ReportMetric(p50, "p50-ns/op")
	b.ReportMetric(gamma, "γ-ns/elem")
}

var benchTCPSeq atomic.Int64

// benchMeshes builds one fully-connected mesh set of `world` ranks
// over the given transport; cleanup releases what the group Closes do
// not (the TCP rendezvous store).
func benchMeshes(b *testing.B, tr string, world int) []transport.Mesh {
	b.Helper()
	switch tr {
	case "inproc":
		return transport.NewInProcMeshes(world)
	case "tcp":
		st := store.NewInMem(30 * time.Second)
		b.Cleanup(func() { st.Close() })
		prefix := fmt.Sprintf("bench-%d", benchTCPSeq.Add(1))
		meshes := make([]transport.Mesh, world)
		errs := make([]error, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				meshes[r], errs[r] = transport.NewTCPMesh(r, world, st, prefix)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				b.Fatalf("tcp mesh rank %d: %v", r, err)
			}
		}
		return meshes
	default:
		b.Fatalf("unknown transport %q", tr)
		return nil
	}
}

// recordBench appends (or, while the harness calibrates b.N, replaces)
// one row, keyed on every dimension the sweeps vary.
func recordBench(rec benchRecord) {
	benchMu.Lock()
	defer benchMu.Unlock()
	for i := range benchRecords {
		r := &benchRecords[i]
		if r.Transport == rec.Transport && r.Algorithm == rec.Algorithm &&
			r.Codec == rec.Codec && r.World == rec.World && r.Elems == rec.Elems {
			*r = rec
			return
		}
	}
	benchRecords = append(benchRecords, rec)
}

func benchAllReduce(b *testing.B, tr string, algo Algorithm, n, world int) {
	b.ReportAllocs()
	topo := NewTopology(benchHosts(world))
	meshes := benchMeshes(b, tr, world)
	var cross atomic.Int64
	groups := make([]ProcessGroup, world)
	for r := range meshes {
		groups[r] = NewGroup(
			&countingMesh{Mesh: meshes[r], topo: topo, cross: &cross},
			Options{Algorithm: algo, Topology: topo})
	}
	defer closeAll(groups)
	bufs := make([][]float32, world)
	for r := range bufs {
		bufs[r] = make([]float32, n)
		for i := range bufs[r] {
			bufs[r][i] = float32(r + i)
		}
	}
	// Resolve Auto exactly like meshGroup.AllReduce does, so the
	// snapshot delta below reads the histogram child the timed ops
	// actually observe into.
	resolved := algo
	if resolved == Auto {
		resolved = chooseAlgorithm(topo, n, world)
	}
	hist := mAllReduceDur.With(resolved.String())
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	before := hist.Snapshot()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, world)
		for r := range groups {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = groups[r].AllReduce(bufs[r], Sum).Wait()
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	b.StopTimer()
	lat := histDelta(before, hist.Snapshot())
	crossPerOp := cross.Load() / int64(b.N)
	b.ReportMetric(float64(crossPerOp), "crossB/op")
	recordBench(benchRecord{
		Transport:           tr,
		Algorithm:           algo.String(),
		World:               world,
		Elems:               n,
		NsPerOp:             float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		CrossHostBytesPerOp: crossPerOp,
		HistP50Ns:           lat.Quantile(0.5) * 1e9,
		HistP99Ns:           lat.Quantile(0.99) * 1e9,
		HistCount:           lat.Count,
	})
}

// benchCrossHostCounter tallies the bytes this rank sends across
// simulated host boundaries, on BOTH lanes — float frames and the
// compressed byte-lane frames. The byte lane forwards explicitly:
// embedding alone would hide the base mesh's ByteMesh from
// transport.ByteLanes and silently push codecs onto the float
// fallback.
type benchCrossHostCounter struct {
	transport.Mesh
	topo  *Topology
	cross *atomic.Int64
}

func (c *benchCrossHostCounter) Send(to int, tag uint64, data []float32) error {
	if c.topo.HostOf(c.Rank()) != c.topo.HostOf(to) {
		c.cross.Add(int64(12 + 4*len(data)))
	}
	return c.Mesh.Send(to, tag, data)
}

// SendBytes counts a crossing byte-lane frame and forwards it.
func (c *benchCrossHostCounter) SendBytes(to int, tag uint64, data []byte) error {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return fmt.Errorf("benchCrossHostCounter: base mesh has no byte lanes")
	}
	if c.topo.HostOf(c.Rank()) != c.topo.HostOf(to) {
		c.cross.Add(int64(12 + len(data)))
	}
	return bm.SendBytes(to, tag, data)
}

// RecvBytes forwards a byte-lane receive.
func (c *benchCrossHostCounter) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return nil, fmt.Errorf("benchCrossHostCounter: base mesh has no byte lanes")
	}
	return bm.RecvBytes(from, tag)
}

// HasByteLanes reports the base mesh's capability.
func (c *benchCrossHostCounter) HasByteLanes() bool {
	_, ok := transport.ByteLanes(c.Mesh)
	return ok
}

// BenchmarkCompressedHierarchical measures the compressed leader ring
// on a TCP mesh: 8 ranks over 4 simulated hosts, Hierarchical
// algorithm, with and without the fp16 codec on the inter-host leader
// ring. The cross-host bytes land in BENCH_allreduce.json rows (codec
// "" vs "fp16"); ci/bench_check.sh asserts their ratio matches the
// codec's 2x within 10%.
func BenchmarkCompressedHierarchical(b *testing.B) {
	const world, n = 8, 1 << 17
	for _, c := range []struct {
		name  string
		codec WireCodec
	}{{"none", nil}, {"fp16", Float16Codec{}}} {
		b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
			benchCompressedHierarchical(b, c.codec, n, world)
		})
	}
}

func benchCompressedHierarchical(b *testing.B, codec WireCodec, n, world int) {
	b.ReportAllocs()
	topo := NewTopology(benchHosts(world))
	meshes := benchMeshes(b, "tcp", world)
	var cross atomic.Int64
	groups := make([]ProcessGroup, world)
	for r := range meshes {
		groups[r] = NewGroup(
			&benchCrossHostCounter{Mesh: meshes[r], topo: topo, cross: &cross},
			Options{Algorithm: Hierarchical, Topology: topo})
	}
	defer closeAll(groups)
	inputs, bufs := benchGradients(world, n)
	residuals := make([][]float32, world)
	for r := range residuals {
		residuals[r] = make([]float32, n)
	}
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill(b, bufs, inputs)
		var wg sync.WaitGroup
		errs := make([]error, world)
		for r := range groups {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if codec == nil {
					errs[r] = groups[r].AllReduce(bufs[r], Sum).Wait()
				} else {
					errs[r] = CompressedAllReduce(groups[r], bufs[r], Sum, codec, residuals[r]).Wait()
				}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	b.StopTimer()
	crossPerOp := cross.Load() / int64(b.N)
	b.ReportMetric(float64(crossPerOp), "crossB/op")
	codecName := ""
	if codec != nil {
		codecName = codec.Name()
	}
	recordBench(benchRecord{
		Transport:           "tcp",
		Algorithm:           Hierarchical.String(),
		Codec:               codecName,
		World:               world,
		Elems:               n,
		NsPerOp:             float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		CrossHostBytesPerOp: crossPerOp,
	})
}

// benchGradients returns per-rank inputs at gradient scale, N(0, 1e-2),
// and the buffers the compressed benchmarks reduce in place. Summing in
// place op after op without refilling would have every element past
// 65504 after a few ops and the benchmark timing fp16's saturation
// branch, with a runaway residual, forever.
func benchGradients(world, n int) (inputs, bufs [][]float32) {
	inputs, bufs = make([][]float32, world), make([][]float32, world)
	for r := range inputs {
		rng := rand.New(rand.NewSource(int64(r + 1)))
		inputs[r], bufs[r] = make([]float32, n), make([]float32, n)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64() * 1e-2)
		}
	}
	return inputs, bufs
}

// refill restores every rank's buffer to its input, off the clock.
func refill(b *testing.B, bufs, inputs [][]float32) {
	b.StopTimer()
	for r := range bufs {
		copy(bufs[r], inputs[r])
	}
	b.StartTimer()
}

// BenchmarkCompressedAllReduce sweeps codec x payload over a TCP mesh,
// counting the real bytes each op puts on the wire (headers included,
// both lanes) next to the uncompressed Ring baseline. The collected
// records land in BENCH_compression.json — the compression ablation is
// measured, not modeled.
func BenchmarkCompressedAllReduce(b *testing.B) {
	codecs := []struct {
		name  string
		codec WireCodec
	}{
		{"none", nil},
		{"fp16", Float16Codec{}},
		{"1bit", &OneBitCodec{}},
		{"topk", &TopKCodec{}},
	}
	sizes := []int{1 << 14, 1 << 17}
	// ringBytes[elems] is the measured uncompressed baseline, filled by
	// the "none" rows (which the sweep runs first) so the codec rows can
	// report a measured-vs-measured ratio.
	ringBytes := make(map[int]int64)
	for _, c := range codecs {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				benchCompressed(b, c.name, c.codec, n, ringBytes)
			})
		}
	}
}

func benchCompressed(b *testing.B, name string, codec WireCodec, n int, ringBytes map[int]int64) {
	b.ReportAllocs()
	meshes := benchMeshes(b, "tcp", benchWorldSize)
	var wire atomic.Int64
	groups := make([]ProcessGroup, benchWorldSize)
	for r := range meshes {
		groups[r] = NewGroup(&benchWireCounter{Mesh: meshes[r], bytes: &wire}, Options{Algorithm: Ring})
	}
	defer closeAll(groups)
	inputs, bufs := benchGradients(benchWorldSize, n)
	residuals := make([][]float32, benchWorldSize)
	for r := range residuals {
		residuals[r] = make([]float32, n)
	}
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill(b, bufs, inputs)
		var wg sync.WaitGroup
		errs := make([]error, benchWorldSize)
		for r := range groups {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if codec == nil {
					errs[r] = groups[r].AllReduce(bufs[r], Sum).Wait()
				} else {
					errs[r] = CompressedAllReduce(groups[r], bufs[r], Sum, codec, residuals[r]).Wait()
				}
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", r, err)
			}
		}
	}
	b.StopTimer()
	perOp := wire.Load() / int64(b.N)
	b.ReportMetric(float64(perOp), "wireB/op")
	benchMu.Lock()
	defer benchMu.Unlock()
	if codec == nil {
		ringBytes[n] = perOp
	}
	ratio := 0.0
	if base := ringBytes[n]; base > 0 && perOp > 0 {
		ratio = float64(base) / float64(perOp)
	}
	rec := compressionRecord{
		Codec:          name,
		World:          benchWorldSize,
		Elems:          n,
		NsPerOp:        float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		WireBytesPerOp: perOp,
		RatioVsRing:    ratio,
	}
	for i := range compressRecords {
		r := &compressRecords[i]
		if r.Codec == rec.Codec && r.Elems == rec.Elems {
			*r = rec
			return
		}
	}
	compressRecords = append(compressRecords, rec)
}

// benchWireCounter counts every byte this rank puts on the wire, on
// both lanes (the bench twin of the test wireCounter, kept separate so
// the bench file stays self-contained).
type benchWireCounter struct {
	transport.Mesh
	bytes *atomic.Int64
}

func (c *benchWireCounter) Send(to int, tag uint64, data []float32) error {
	c.bytes.Add(int64(12 + 4*len(data)))
	return c.Mesh.Send(to, tag, data)
}

// SendBytes counts and forwards a byte-lane frame.
func (c *benchWireCounter) SendBytes(to int, tag uint64, data []byte) error {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return fmt.Errorf("benchWireCounter: base mesh has no byte lanes")
	}
	c.bytes.Add(int64(12 + len(data)))
	return bm.SendBytes(to, tag, data)
}

// RecvBytes forwards a byte-lane receive.
func (c *benchWireCounter) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return nil, fmt.Errorf("benchWireCounter: base mesh has no byte lanes")
	}
	return bm.RecvBytes(from, tag)
}

// HasByteLanes reports the base mesh's capability.
func (c *benchWireCounter) HasByteLanes() bool {
	_, ok := transport.ByteLanes(c.Mesh)
	return ok
}
