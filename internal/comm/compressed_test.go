package comm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
)

// tcpTestMeshes builds a TCP mesh set for the compressed-collective
// tests, with per-test unique prefixes so suites can share a store.
var compressedTCPSeq atomic.Int64

func tcpTestMeshes(t *testing.T, world int) []transport.Mesh {
	t.Helper()
	st := store.NewInMem(20 * time.Second)
	t.Cleanup(func() { st.Close() })
	prefix := fmt.Sprintf("compressed-%d", compressedTCPSeq.Add(1))
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
			t.Fatalf("tcp mesh rank %d: %v", r, err)
		}
	}
	return meshes
}

func groupsOver(meshes []transport.Mesh, opts Options) []ProcessGroup {
	groups := make([]ProcessGroup, len(meshes))
	for r := range meshes {
		groups[r] = NewGroup(meshes[r], opts)
	}
	return groups
}

// TestCompressedAllReduceAllRanksAgree: the core invariant — every rank
// finishes with bitwise-identical data — across codecs, transports,
// world sizes (including non-power-of-two), and payload shapes
// (including empty, single-element, and n < world where some chunks are
// empty).
func TestCompressedAllReduceAllRanksAgree(t *testing.T) {
	sizes := []int{0, 1, 2, 5, 1000}
	for _, tr := range []string{"inproc", "tcp"} {
		for _, world := range []int{1, 2, 3, 4} {
			if tr == "tcp" && world > 3 {
				continue // keep socket churn bounded; 2 and 3 cover the shapes
			}
			var meshes []transport.Mesh
			if tr == "inproc" {
				meshes = transport.NewInProcMeshes(world)
			} else {
				meshes = tcpTestMeshes(t, world)
			}
			groups := groupsOver(meshes, Options{})
			for _, codec := range wireCodecs() {
				for _, n := range sizes {
					results := make([][]float32, world)
					residuals := make([][]float32, world)
					runCollective(t, groups, func(rank int, g ProcessGroup) error {
						data := make([]float32, n)
						for i := range data {
							data[i] = float32(rank+1) * (float32(i%17) - 8)
						}
						res := make([]float32, n)
						if err := CompressedAllReduce(g, data, Avg, codec, res).Wait(); err != nil {
							return err
						}
						results[rank] = data
						residuals[rank] = res
						return nil
					})
					for r := 1; r < world; r++ {
						for i := range results[0] {
							if results[r][i] != results[0][i] {
								t.Fatalf("%s/%s world %d n %d: rank %d diverges at elem %d: %v vs %v",
									tr, codec.Name(), world, n, r, i, results[r][i], results[0][i])
							}
						}
					}
					for r := range results {
						for i, v := range results[r] {
							if math.IsNaN(float64(v)) {
								t.Fatalf("%s/%s world %d n %d: rank %d elem %d is NaN", tr, codec.Name(), world, n, r, i)
							}
						}
						for i, v := range residuals[r] {
							if math.IsNaN(float64(v)) {
								t.Fatalf("%s/%s world %d n %d: rank %d residual %d is NaN", tr, codec.Name(), world, n, r, i)
							}
						}
					}
				}
			}
			closeAll(groups)
		}
	}
}

// TestCompressedAllReduceFp16Accuracy: fp16 is near-lossless for small
// integers, so the compressed mean must match the exact mean closely.
func TestCompressedAllReduceFp16Accuracy(t *testing.T) {
	const world, n = 4, 257
	groups := NewInProcGroups(world, Options{})
	defer closeAll(groups)
	results := make([][]float32, world)
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rank + 1) // sum 10, avg 2.5: exact in fp16
		}
		if err := CompressedAllReduce(g, data, Avg, Float16Codec{}, nil).Wait(); err != nil {
			return err
		}
		results[rank] = data
		return nil
	})
	for r := range results {
		for i, v := range results[r] {
			if v != 2.5 {
				t.Fatalf("rank %d elem %d: %v, want 2.5", r, i, v)
			}
		}
	}
}

// refusal is one way to submit a compressed collective that cannot ride
// the byte lanes.
type refusal struct {
	name   string
	launch func(g ProcessGroup, data, residual []float32) Work
}

// bothCompressedCollectives submits CompressedAllReduce and
// CompressedReduceScatterV under op.
func bothCompressedCollectives(op ReduceOp) []refusal {
	return []refusal{
		{"allreduce " + op.String(), func(g ProcessGroup, data, residual []float32) Work {
			return CompressedAllReduce(g, data, op, &OneBitCodec{}, residual)
		}},
		{"reduce-scatter-v " + op.String(), func(g ProcessGroup, data, residual []float32) Work {
			return g.(ShardedGroup).CompressedReduceScatterV(data, op, &OneBitCodec{}, residual)
		}},
	}
}

// checkRefused is the contract of ErrCompressionUnsupported: every rank
// of a world of three, its mesh wrapped by wrapMesh and its group by
// wrapGroup (either may be nil), gets the typed error from each
// refusal; data and residual keep every bit; no frame leaves any rank;
// and the group then runs a plain AllReduce.
func checkRefused(t *testing.T, wrapMesh func(transport.Mesh) transport.Mesh, wrapGroup func(ProcessGroup) ProcessGroup, refusals []refusal) {
	t.Helper()
	const world, n = 3, 100
	var sent atomic.Int64
	meshes := transport.NewInProcMeshes(world)
	for r, m := range meshes {
		if wrapMesh != nil {
			m = wrapMesh(m)
		}
		meshes[r] = &wireCounter{Mesh: m, bytes: &sent}
	}
	groups := groupsOver(meshes, Options{})
	defer closeAll(groups)
	for r, g := range groups {
		if wrapGroup != nil {
			groups[r] = wrapGroup(g)
		}
	}
	for _, rf := range refusals {
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			data, residual := gradientInput(rank, n, 0), gradientInput(rank+world, n, 1)
			wantData, wantRes := slices.Clone(data), slices.Clone(residual)
			err := rf.launch(g, data, residual).Wait()
			if !errors.Is(err, ErrCompressionUnsupported) {
				return fmt.Errorf("%s: got %v, want ErrCompressionUnsupported", rf.name, err)
			}
			if i := sameBits(data, wantData); i >= 0 {
				return fmt.Errorf("%s: the refused call changed data[%d]", rf.name, i)
			}
			if i := sameBits(residual, wantRes); i >= 0 {
				return fmt.Errorf("%s: the refused call changed residual[%d]", rf.name, i)
			}
			return nil
		})
		if got := sent.Load(); got != 0 {
			t.Fatalf("%s: %d bytes were sent by a refused collective", rf.name, got)
		}
	}
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		one := []float32{1}
		if err := g.AllReduce(one, Sum).Wait(); err != nil || one[0] != world {
			return fmt.Errorf("allreduce after the refusals: %v, %v", one, err)
		}
		return nil
	})
}

// TestCompressedAllReduceFallbackOps: the ops a codec cannot reduce —
// Min, Max and Prod, which once fell back to a float AllReduce of
// quantized inputs — are refused by both compressed collectives.
func TestCompressedAllReduceFallbackOps(t *testing.T) {
	for _, op := range []ReduceOp{Min, Max, Prod} {
		checkRefused(t, nil, nil, bothCompressedCollectives(op))
	}
}

// TestCompressedAllReduceNoByteLanes: a group over a float-only mesh
// refuses both compressed collectives instead of quantizing and
// reducing in float32.
func TestCompressedAllReduceNoByteLanes(t *testing.T) {
	checkRefused(t, func(m transport.Mesh) transport.Mesh { return floatOnly{m} }, nil, bothCompressedCollectives(Avg))
}

// TestCompressedAllReduceRefusesGroupWithoutCompressor: a group
// decorator that does not forward GradientCompressor gets the typed
// error, not a quantize-then-AllReduce of its own.
func TestCompressedAllReduceRefusesGroupWithoutCompressor(t *testing.T) {
	checkRefused(t, nil, func(g ProcessGroup) ProcessGroup { return plainGroup{g} }, bothCompressedCollectives(Avg)[:1])
}

// floatOnly hides a mesh's byte lanes.
type floatOnly struct{ m transport.Mesh }

func (f floatOnly) Rank() int                                    { return f.m.Rank() }
func (f floatOnly) Size() int                                    { return f.m.Size() }
func (f floatOnly) Send(to int, tag uint64, d []float32) error   { return f.m.Send(to, tag, d) }
func (f floatOnly) Recv(from int, tag uint64) ([]float32, error) { return f.m.Recv(from, tag) }
func (f floatOnly) Close() error                                 { return f.m.Close() }

// wireCounter wraps a mesh and counts every payload+header byte leaving
// this rank, on both lanes — the "real cross-wire bytes" the compressed
// path exists to shrink.
type wireCounter struct {
	transport.Mesh
	bytes *atomic.Int64
}

func (c *wireCounter) Send(to int, tag uint64, data []float32) error {
	c.bytes.Add(int64(12 + 4*len(data)))
	return c.Mesh.Send(to, tag, data)
}

// SendBytes counts and forwards a byte-lane frame.
func (c *wireCounter) SendBytes(to int, tag uint64, data []byte) error {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return fmt.Errorf("wireCounter: base mesh has no byte lanes")
	}
	c.bytes.Add(int64(12 + len(data)))
	return bm.SendBytes(to, tag, data)
}

// RecvBytes forwards a byte-lane receive.
func (c *wireCounter) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return nil, fmt.Errorf("wireCounter: base mesh has no byte lanes")
	}
	return bm.RecvBytes(from, tag)
}

// HasByteLanes reports the base mesh's capability.
func (c *wireCounter) HasByteLanes() bool {
	_, ok := transport.ByteLanes(c.Mesh)
	return ok
}

// measureWireBytes runs one AllReduce (plain Ring when codec is nil,
// compressed otherwise) over counted TCP meshes and returns total bytes
// put on the wire by all ranks.
func measureWireBytes(t *testing.T, world, n int, codec WireCodec) int64 {
	t.Helper()
	meshes := tcpTestMeshes(t, world)
	var total atomic.Int64
	wrapped := make([]transport.Mesh, world)
	for r := range meshes {
		wrapped[r] = &wireCounter{Mesh: meshes[r], bytes: &total}
	}
	groups := groupsOver(wrapped, Options{Algorithm: Ring})
	defer closeAll(groups)
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rank+1) * float32(i%7)
		}
		if codec == nil {
			return g.AllReduce(data, Sum).Wait()
		}
		return CompressedAllReduce(g, data, Sum, codec, make([]float32, n)).Wait()
	})
	return total.Load()
}

// TestCompressedWireBytesReduction is the acceptance criterion measured
// for real on a TCP mesh: vs the uncompressed Ring, fp16 frames must
// cut total cross-wire bytes by >= 1.9x and 1-bit frames by >= 8x.
// Deterministic — it counts actual socket payloads, not a model.
func TestCompressedWireBytesReduction(t *testing.T) {
	const world, n = 4, 1 << 16
	ring := measureWireBytes(t, world, n, nil)
	for _, tc := range []struct {
		codec    WireCodec
		minRatio float64
	}{
		{Float16Codec{}, 1.9},
		{&OneBitCodec{}, 8},
		{&TopKCodec{}, 3},
	} {
		got := measureWireBytes(t, world, n, tc.codec)
		ratio := float64(ring) / float64(got)
		t.Logf("%s: ring %d bytes, compressed %d bytes, ratio %.2fx", tc.codec.Name(), ring, got, ratio)
		if ratio < tc.minRatio {
			t.Fatalf("%s: wire reduction %.2fx < required %.2fx (ring %d, compressed %d)",
				tc.codec.Name(), ratio, tc.minRatio, ring, got)
		}
	}
}

// TestCompressedAllReduceRoundRobin: the composite group must dispatch
// compressed collectives and agree across ranks.
func TestCompressedAllReduceRoundRobin(t *testing.T) {
	const world, nGroups, n = 2, 2, 512
	subs := make([][]ProcessGroup, nGroups)
	for i := range subs {
		subs[i] = NewInProcGroups(world, Options{})
	}
	results := make([][]float32, world)
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			gs := make([]ProcessGroup, nGroups)
			for i := range gs {
				gs[i] = subs[i][rank]
			}
			rr, err := NewRoundRobin(gs...)
			if err != nil {
				errs[rank] = err
				return
			}
			defer rr.Close()
			data := make([]float32, n)
			for i := range data {
				data[i] = float32(rank+1) + float32(i%3)
			}
			// Two collectives so the rotation is exercised.
			for it := 0; it < 2; it++ {
				if err := CompressedAllReduce(rr, data, Avg, &OneBitCodec{}, make([]float32, n)).Wait(); err != nil {
					errs[rank] = err
					return
				}
			}
			results[rank] = data
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("round-robin compressed diverged at %d", i)
		}
	}
}

// TestErrorFeedbackConvergence: gradient descent through the 1-bit
// codec converges to the optimum WITH error feedback and stalls
// without — the property the residual plumbing exists for. World 1
// (CompressedAllReduce quantizes locally), fully deterministic.
func TestErrorFeedbackConvergence(t *testing.T) {
	groups := NewInProcGroups(1, Options{})
	defer closeAll(groups)
	target := []float32{0.31, -1.27, 0.05, 2.4, -0.009, 0.6}

	run := func(withFeedback bool) float64 {
		x := make([]float32, len(target))
		var residual []float32
		if withFeedback {
			residual = make([]float32, len(target))
		}
		grad := make([]float32, len(target))
		const lr = 0.05
		for it := 0; it < 400; it++ {
			for i := range grad {
				grad[i] = x[i] - target[i]
			}
			if err := CompressedAllReduce(groups[0], grad, Avg, &OneBitCodec{}, residual).Wait(); err != nil {
				t.Fatal(err)
			}
			for i := range x {
				x[i] -= lr * grad[i]
			}
		}
		var maxErr float64
		for i := range x {
			if e := math.Abs(float64(x[i] - target[i])); e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}

	withEF := run(true)
	withoutEF := run(false)
	t.Logf("max error with feedback %.4f, without %.4f", withEF, withoutEF)
	if withEF > 0.05 {
		t.Fatalf("with error feedback, descent should converge (max error %.4f)", withEF)
	}
	if withoutEF < 4*withEF {
		t.Fatalf("without error feedback, 1-bit descent should stall well above the feedback run (%.4f vs %.4f)", withoutEF, withEF)
	}
}

// compressedReference is the sequential statement of the compressed
// collectives, written the way they first shipped and over the scalar
// oracle (codec_ref_test.go): for every chunk, EVERY contribution — the
// owner's included — goes through encode then decode (with its rank's
// residual slice), the decoded contributions are folded in rank order,
// and the fold is the reduce-scatter's result; the all-reduce re-encodes
// it (no residual) and every rank holds the decode of those bytes,
// scaled once for Avg. A world of one quantizes its whole buffer once.
// residuals[r] is nil or rank r's accumulator, updated in place.
func compressedReference(rc refCodec, inputs, residuals [][]float32, op ReduceOp, requantize bool) []float32 {
	k, n := len(inputs), len(inputs[0])
	roundTrip := func(dst, data, residual []float32) {
		frame := rc.encode(nil, data, residual)
		if err := rc.decode(frame, dst); err != nil {
			panic(err)
		}
	}
	out := make([]float32, n)
	if k == 1 {
		roundTrip(out, inputs[0], residuals[0])
		return out
	}
	for owner := 0; owner < k; owner++ {
		lo, hi := chunkBounds(n, k, owner)
		acc, scratch := out[lo:hi], make([]float32, hi-lo)
		for r := 0; r < k; r++ {
			var res []float32
			if residuals[r] != nil {
				res = residuals[r][lo:hi]
			}
			if r == 0 {
				roundTrip(acc, inputs[r][lo:hi], res)
				continue
			}
			roundTrip(scratch, inputs[r][lo:hi], res)
			reduceRange(acc, scratch, Sum)
		}
		if requantize {
			roundTrip(acc, slices.Clone(acc), nil)
		}
	}
	finishAvg(out, op, k)
	return out
}

// gradientInput is rank's contribution to round `round` of a compressed
// agreement run: inexact magnitudes over several binades, every second
// round shrunk so that fp16 lands in its subnormal range.
func gradientInput(rank, n, round int) []float32 {
	data := inexactInput(rank+31*round, n)
	if round%2 == 1 {
		for i := range data {
			data[i] *= 1e-7
		}
	}
	return data
}

// TestCompressedCollectivesMatchSequentialReference: the fused schedule
// — own contribution quantized straight to floats, peers' frames
// decode-added, the owner keeping the values of its own stage-2 encode,
// frames built on demand, own work ahead of the first receive — leaves
// every rank's data AND residual bitwise what the unfused two-stage
// algorithm over the scalar codec bodies leaves: CompressedAllReduce and
// CompressedReduceScatterV, worlds 1-9 in-proc and 2/3/5 over loopback
// TCP, the chunking edge sizes, every codec, Sum and Avg, with and
// without error feedback, three collectives back to back (the residual
// of one round feeds the next).
func TestCompressedCollectivesMatchSequentialReference(t *testing.T) {
	type row struct {
		tcp   bool
		world int
	}
	var rows []row
	for world := 1; world <= 9; world++ {
		rows = append(rows, row{false, world})
	}
	for _, world := range []int{2, 3, 5} {
		rows = append(rows, row{true, world})
	}
	for _, rw := range rows {
		k := rw.world
		meshes := transport.NewInProcMeshes(k)
		if rw.tcp {
			meshes = tcpTestMeshes(t, k)
		}
		groups := asSharded(t, groupsOver(meshes, Options{}))
		for _, rc := range refCodecs()[:3] {
			for _, n := range []int{0, 1, k - 1, k, k + 1, 4099} {
				for _, op := range []ReduceOp{Sum, Avg} {
					for _, feedback := range []bool{false, true} {
						for _, scatterOnly := range []bool{false, true} {
							name := fmt.Sprintf("tcp=%v world=%d %s n=%d %v feedback=%v scatterOnly=%v", rw.tcp, k, rc.codec.Name(), n, op, feedback, scatterOnly)
							residuals, wantRes := make([][]float32, k), make([][]float32, k)
							if feedback {
								for r := range residuals {
									residuals[r], wantRes[r] = make([]float32, n), make([]float32, n)
								}
							}
							for round := 0; round < 3; round++ {
								inputs, got := make([][]float32, k), make([][]float32, k)
								for r := range inputs {
									inputs[r] = gradientInput(r, n, round)
									got[r] = slices.Clone(inputs[r])
								}
								errs := make([]error, k)
								var wg sync.WaitGroup
								for r := range groups {
									wg.Add(1)
									go func() {
										defer wg.Done()
										if scatterOnly {
											errs[r] = groups[r].CompressedReduceScatterV(got[r], op, rc.codec, residuals[r]).Wait()
										} else {
											errs[r] = CompressedAllReduce(groups[r], got[r], op, rc.codec, residuals[r]).Wait()
										}
									}()
								}
								wg.Wait()
								want := compressedReference(rc, inputs, wantRes, op, !scatterOnly)
								for r := range groups {
									if errs[r] != nil {
										t.Fatalf("%s round %d rank %d: %v", name, round, r, errs[r])
									}
									lo, hi := 0, n
									if scatterOnly && k > 1 {
										lo, hi = chunkBounds(n, k, r)
									}
									if i := sameBits(got[r][lo:hi], want[lo:hi]); i >= 0 {
										t.Fatalf("%s round %d rank %d: data[%d] = %v, sequential reference %v", name, round, r, lo+i, got[r][lo+i], want[lo+i])
									}
									if i := sameBits(residuals[r], wantRes[r]); i >= 0 {
										t.Fatalf("%s round %d rank %d: residual[%d] = %v, sequential reference %v", name, round, r, i, residuals[r][i], wantRes[r][i])
									}
								}
							}
						}
					}
				}
			}
		}
		for _, g := range groups {
			g.Close()
		}
	}
}

// TestCompressedLeaderRingMatchesSequentialReference: the compressed
// leader ring is the exact binomial fold onto the outermost leaders,
// compressedReference among them (their residuals only), the verbatim
// copy back down and one scale — bitwise, data and residuals, on a
// layout with hosts of three sizes and on one whose hosts interleave.
func TestCompressedLeaderRingMatchesSequentialReference(t *testing.T) {
	const k, n = 6, 1031
	for _, layout := range []string{"uneven", "interleaved"} {
		topo := NewTopology(hostLayouts(k)[layout])
		leaders := topo.levelLeaders(0)
		for _, rc := range refCodecs()[:3] {
			for _, op := range []ReduceOp{Sum, Avg} {
				groups := compressedHierGroups(transport.NewInProcMeshes(k), topo)
				residuals, wantRes := make([][]float32, k), make([][]float32, len(leaders))
				for r := range residuals {
					residuals[r] = make([]float32, n)
				}
				for l := range wantRes {
					wantRes[l] = make([]float32, n)
				}
				for round := 0; round < 3; round++ {
					inputs, got := make([][]float32, k), make([][]float32, k)
					for r := range inputs {
						inputs[r] = gradientInput(r, n, round)
						got[r] = slices.Clone(inputs[r])
					}
					runCollective(t, groups, func(rank int, g ProcessGroup) error {
						return CompressedAllReduce(g, got[rank], op, rc.codec, residuals[rank]).Wait()
					})
					want := compressedReference(rc, leaderPartials(inputs, topo), wantRes, Sum, true)
					finishAvg(want, op, k)
					for r := range got {
						if i := sameBits(got[r], want); i >= 0 {
							t.Fatalf("%s %s %v round %d rank %d: data[%d] = %v, sequential reference %v", layout, rc.codec.Name(), op, round, r, i, got[r][i], want[i])
						}
						wantR := make([]float32, n) // a rank off the ring quantizes nothing
						if l := slices.Index(leaders, r); l >= 0 {
							wantR = wantRes[l]
						}
						if i := sameBits(residuals[r], wantR); i >= 0 {
							t.Fatalf("%s %s %v round %d rank %d: residual[%d] = %v, want %v", layout, rc.codec.Name(), op, round, r, i, residuals[r][i], wantR[i])
						}
					}
				}
				closeAll(groups)
			}
		}
	}
}

// plainGroup hides a group's GradientCompressor, as a decorator that
// forgot to forward it would.
type plainGroup struct{ ProcessGroup }

// TestAbortedCollectiveRestoresResidual: a compressed collective that
// fails mid-exchange — the peer's mesh goes away while this rank, having
// quantized and shipped its share and updated its residual in place,
// waits for the peer's frame — leaves the residual bit-equal to its
// pre-call contents: on the wire path, on the mesh's float fallback and
// on the generic fallback, for both collectives.
func TestAbortedCollectiveRestoresResidual(t *testing.T) {
	const n = 1000
	for name, tc := range map[string]struct {
		wrapMesh  func(transport.Mesh) transport.Mesh
		wrapGroup func(ProcessGroup) ProcessGroup
		scatter   bool
	}{
		"wire":                {},
		"wire scatter":        {scatter: true},
		"float mesh":          {wrapMesh: func(m transport.Mesh) transport.Mesh { return floatOnly{m} }},
		"float mesh scatter":  {wrapMesh: func(m transport.Mesh) transport.Mesh { return floatOnly{m} }, scatter: true},
		"generic quantize":    {wrapGroup: func(g ProcessGroup) ProcessGroup { return plainGroup{g} }},
		"generic, float mesh": {wrapMesh: func(m transport.Mesh) transport.Mesh { return floatOnly{m} }, wrapGroup: func(g ProcessGroup) ProcessGroup { return plainGroup{g} }},
	} {
		for _, codec := range wireCodecs()[:3] {
			meshes := transport.NewInProcMeshes(2)
			mesh := meshes[0]
			if tc.wrapMesh != nil {
				mesh = tc.wrapMesh(mesh)
			}
			group := NewGroup(mesh, Options{})
			data, residual := gradientInput(0, n, 0), gradientInput(7, n, 1)
			before := slices.Clone(residual)
			var work Work
			switch {
			case tc.scatter:
				work = group.(ShardedGroup).CompressedReduceScatterV(data, Avg, codec, residual)
			case tc.wrapGroup != nil:
				work = CompressedAllReduce(tc.wrapGroup(group), data, Avg, codec, residual)
			default:
				work = CompressedAllReduce(group, data, Avg, codec, residual)
			}
			// Rank 1 never joins: rank 0 has its frame out and blocks in
			// the receive until the peer's view closes.
			meshes[1].Close()
			if err := work.Wait(); err == nil {
				t.Fatalf("%s/%s: the collective succeeded without a peer", name, codec.Name())
			}
			if i := sameBits(residual, before); i >= 0 {
				t.Fatalf("%s/%s: residual[%d] = %v after the abort, %v before the call", name, codec.Name(), i, residual[i], before[i])
			}
			group.Close()
		}
	}
}
