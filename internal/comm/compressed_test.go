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

// dyingMesh is a rank's mesh that closes itself instead of sending any
// peer its byte frame number at+1, once every peer has its first at: by
// then the rank has quantized, updated its residual in place and shipped
// at frames to each peer, and its peers are waiting on it. Sends to one
// peer leave in schedule order but posted sends to different peers race,
// so the fault is counted per peer and the fatal frame waits for the
// at·(k-1) before it: the rank dies at the same point of its schedule on
// every run.
type dyingMesh struct {
	transport.Mesh
	at      int32
	started []atomic.Int32 // byte frames begun, by peer
	shipped sync.WaitGroup // the frames before the fault
}

func newDyingMesh(m transport.Mesh, at int32) *dyingMesh {
	d := &dyingMesh{Mesh: m, at: at, started: make([]atomic.Int32, m.Size())}
	d.shipped.Add(int(at) * (m.Size() - 1))
	return d
}

// SendBytes forwards the first at frames to each peer and closes the
// mesh on the next, once those have all left.
func (d *dyingMesh) SendBytes(to int, tag uint64, data []byte) error {
	if d.started[to].Add(1) > d.at {
		d.shipped.Wait()
		d.Mesh.Close()
		return errors.New("dyingMesh: closed instead of sending")
	}
	defer d.shipped.Done()
	bm, _ := transport.ByteLanes(d.Mesh)
	return bm.SendBytes(to, tag, data)
}

// RecvBytes forwards a byte-lane receive.
func (d *dyingMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, _ := transport.ByteLanes(d.Mesh)
	return bm.RecvBytes(from, tag)
}

// TestAbortedCollectiveRestoresResidual: a compressed collective that
// fails mid-exchange — the last rank's mesh goes away where it would
// have sent its next frame, while every rank has quantized, shipped what
// it could and updated its residual in place — fails on every rank, with
// no outside abort, and leaves every rank's residual bit-equal to its
// pre-call contents: on the two-rank one
// exchange (fp16; the other codecs take stage 1 of two there), on both
// stages of the two-stage schedule (two ranks above ringPairMaxElems,
// three ranks), and on CompressedReduceScatterV. A call
// refused at submission (a mesh without byte lanes, a group that does
// not forward GradientCompressor) fails with ErrCompressionUnsupported
// and touches nothing.
func TestAbortedCollectiveRestoresResidual(t *testing.T) {
	for _, tc := range []struct {
		name       string
		world, n   int
		scatter    bool
		victimSent int32 // frames the last rank ships each peer before its mesh closes
	}{
		{"world 2, first frame", 2, 1000, false, 0},
		{"two-stage world 2, stage 2", 2, ringPairMaxElems + 1, false, 1},
		{"two-stage world 3, stage 2", 3, 1000, false, 1},
		{"reduce-scatter-v world 2", 2, 1000, true, 0},
		{"reduce-scatter-v world 3", 3, 1000, true, 0},
	} {
		for _, codec := range wireCodecs()[:3] {
			name := tc.name + "/" + codec.Name()
			meshes := transport.NewInProcMeshes(tc.world)
			last := tc.world - 1
			meshes[last] = newDyingMesh(meshes[last], tc.victimSent)
			groups := groupsOver(meshes, Options{})
			residuals, before := make([][]float32, tc.world), make([][]float32, tc.world)
			errs := make([]error, tc.world)
			var wg sync.WaitGroup
			for r, g := range groups {
				residuals[r] = gradientInput(r+7, tc.n, 1)
				before[r] = slices.Clone(residuals[r])
				wg.Add(1)
				go func() {
					defer wg.Done()
					data := gradientInput(r, tc.n, 0)
					if tc.scatter {
						errs[r] = g.(ShardedGroup).CompressedReduceScatterV(data, Avg, codec, residuals[r]).Wait()
					} else {
						errs[r] = CompressedAllReduce(g, data, Avg, codec, residuals[r]).Wait()
					}
				}()
			}
			wg.Wait()
			for r := range groups {
				if errs[r] == nil {
					t.Fatalf("%s: rank %d finished a collective its peer abandoned", name, r)
				}
				if i := sameBits(residuals[r], before[r]); i >= 0 {
					t.Fatalf("%s: rank %d residual[%d] = %v after the abort, %v before the call", name, r, i, residuals[r][i], before[r][i])
				}
			}
			closeAll(groups)
		}
	}

	for name, group := range map[string]func(transport.Mesh) ProcessGroup{
		"no byte lanes": func(m transport.Mesh) ProcessGroup { return NewGroup(floatOnly{m}, Options{}) },
		"no compressor": func(m transport.Mesh) ProcessGroup { return plainGroup{NewGroup(m, Options{})} },
	} {
		g := group(transport.NewInProcMeshes(2)[0])
		data, residual := gradientInput(0, 100, 0), gradientInput(7, 100, 1)
		before := slices.Clone(residual)
		if err := CompressedAllReduce(g, data, Avg, Float16Codec{}, residual).Wait(); !errors.Is(err, ErrCompressionUnsupported) {
			t.Fatalf("%s: got %v, want ErrCompressionUnsupported", name, err)
		}
		if i := sameBits(residual, before); i >= 0 {
			t.Fatalf("%s: the refused call changed residual[%d]", name, i)
		}
		g.Close()
	}
}

// countedBytes is a rank's byte lane with the frames it sends counted.
type countedBytes struct {
	transport.ByteMesh
	frames, bytes atomic.Int64
}

func (c *countedBytes) SendBytes(to int, tag uint64, data []byte) error {
	c.frames.Add(1)
	c.bytes.Add(int64(len(data)))
	return c.ByteMesh.SendBytes(to, tag, data)
}

// pairSchedule is pairExchange, twoStages or the dispatcher between
// them, compressedAllReduce.
type pairSchedule func(bm transport.ByteMesh, tag uint64, rank int, ranks []int, data []float32, codec Codec, residual []float32) (int, error)

// compressedAllReduce runs compressedSteps among ranks (ascending, this
// rank one of them) over the byte lanes alone, taking the one exchange
// where pairs does; pairExchange and twoStages force it on and off,
// whatever the codec and size.
var (
	compressedAllReduce = compressedAmong(pairs)
	pairExchange        = compressedAmong(func(Codec, int, int) bool { return true })
	twoStages           = compressedAmong(func(Codec, int, int) bool { return false })
)

func compressedAmong(pair func(codec Codec, k, n int) bool) pairSchedule {
	return func(bm transport.ByteMesh, tag uint64, rank int, ranks []int, data []float32, codec Codec, residual []float32) (int, error) {
		k, n := len(ranks), len(data)
		steps := onto(ranks, compressedSteps(slices.Index(ranks, rank), k, n, pair(codec, k, n)))
		return runSteps(run{bm: bm, rank: rank, tag: tag, name: "compressed allreduce", data: data, codec: codec, residual: residual, parts: k}, steps)
	}
}

// allRanks lists 0..k-1.
func allRanks(k int) []int {
	ps := make([]int, k)
	for p := range ps {
		ps[p] = p
	}
	return ps
}

// runPairSchedule runs one schedule between two in-proc ranks, each on a
// copy of its input and on its residual in place, and returns the results
// and, per rank, the frames it sent and the bytes it reported.
func runPairSchedule(t *testing.T, schedule pairSchedule, codecs [2]Codec, inputs, residuals [2][]float32) (out [2][]float32, frames, wire [2]int64, errs [2]error) {
	t.Helper()
	meshes := transport.NewInProcMeshes(2)
	var wg sync.WaitGroup
	for r := range 2 {
		bm, _ := transport.ByteLanes(meshes[r])
		lane := &countedBytes{ByteMesh: bm}
		out[r] = slices.Clone(inputs[r])
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w int
			w, errs[r] = schedule(lane, 1, r, []int{0, 1}, out[r], codecs[r], residuals[r])
			frames[r], wire[r] = lane.frames.Load(), int64(w)
			if errs[r] == nil && lane.bytes.Load() != wire[r] {
				t.Errorf("rank %d reported %d wire bytes and sent %d", r, w, lane.bytes.Load())
			}
		}()
	}
	wg.Wait()
	for _, m := range meshes {
		m.Close()
	}
	return out, frames, wire, errs
}

// TestCompressedPairMatchesTwoStage: between two ranks the one exchange
// leaves data and residuals bitwise what the two stages leave — every
// codec, the chunking edges, a size past the cutoff (the schedules take
// any size when called directly), with and without error feedback, three
// rounds so each residual feeds the next — while a rank ships one frame
// instead of two and the same bytes.
func TestCompressedPairMatchesTwoStage(t *testing.T) {
	for _, codec := range wireCodecs() {
		for _, n := range []int{0, 1, 2, 3, 4099, ringPairMaxElems + 1} {
			for _, feedback := range []bool{false, true} {
				name := fmt.Sprintf("%s n=%d feedback=%v", codec.Name(), n, feedback)
				var pairRes, twoRes [2][]float32
				if feedback {
					for r := range 2 {
						pairRes[r], twoRes[r] = make([]float32, n), make([]float32, n)
					}
				}
				codecs := [2]Codec{codec, codec}
				for round := range 3 {
					inputs := [2][]float32{gradientInput(0, n, round), gradientInput(1, n, round)}
					got, gotFrames, gotWire, errs := runPairSchedule(t, pairExchange, codecs, inputs, pairRes)
					want, wantFrames, wantWire, wantErrs := runPairSchedule(t, twoStages, codecs, inputs, twoRes)
					for r := range 2 {
						if errs[r] != nil || wantErrs[r] != nil {
							t.Fatalf("%s round %d rank %d: pair %v, two-stage %v", name, round, r, errs[r], wantErrs[r])
						}
						if i := sameBits(got[r], want[r]); i >= 0 {
							t.Fatalf("%s round %d rank %d: data[%d] = %v, two stages %v", name, round, r, i, got[r][i], want[r][i])
						}
						if i := sameBits(pairRes[r], twoRes[r]); i >= 0 {
							t.Fatalf("%s round %d rank %d: residual[%d] = %v, two stages %v", name, round, r, i, pairRes[r][i], twoRes[r][i])
						}
						if gotFrames[r] != 1 || wantFrames[r] != 2 {
							t.Fatalf("%s rank %d: %d frames on the pair path, %d on two stages; want 1 and 2", name, r, gotFrames[r], wantFrames[r])
						}
						if gotWire[r] != wantWire[r] {
							t.Fatalf("%s rank %d: %d bytes on the pair path, %d on two stages", name, r, gotWire[r], wantWire[r])
						}
					}
				}
			}
		}
	}
}

// TestCompressedPairOnlyForFloat16: two ranks up to the cutoff take the
// one exchange under fp16 alone; 1-bit and top-k, whose re-encode costs
// more than the hop it saves (BenchmarkRingPairCrossover), ship two
// frames a rank.
func TestCompressedPairOnlyForFloat16(t *testing.T) {
	const n = 1000
	inputs := [2][]float32{gradientInput(0, n, 0), gradientInput(1, n, 0)}
	for _, codec := range wireCodecs() {
		_, frames, _, errs := runPairSchedule(t, compressedAllReduce, [2]Codec{codec, codec}, inputs, [2][]float32{})
		want := int64(2)
		if _, fp16 := codec.(Float16Codec); fp16 {
			want = 1
		}
		for r := range 2 {
			if errs[r] != nil || frames[r] != want {
				t.Fatalf("%s rank %d: %d frames (%v), want %d", codec.Name(), r, frames[r], errs[r], want)
			}
		}
	}
}

// misSized is a codec whose EncodedSize claims extra bytes it never
// produces.
type misSized struct {
	Codec
	extra int
}

func (c misSized) EncodedSize(n int) int { return c.Codec.EncodedSize(n) + c.extra }

// TestCompressedPairRefusesMisSizedFrames: the pair path finds the
// boundary between a frame's two chunks by EncodedSize, so a frame of any
// other size fails both ranks with a byte-counting frameLenError instead
// of being split in the wrong place — whether both ranks' codec lies or
// only one rank's does (that rank ships an empty frame instead of its
// own). At three ranks the two stages post a frame to every peer before
// any receive, and a lying rank ships each of them empty, so every rank
// fails instead of one waiting for a frame that never leaves.
func TestCompressedPairRefusesMisSizedFrames(t *testing.T) {
	const n = 100
	inputs := [2][]float32{gradientInput(0, n, 0), gradientInput(1, n, 0)}
	isFrameLen := func(err error) bool {
		var fe *frameLenError
		return errors.As(err, &fe) && fe.unit == "bytes"
	}
	for name, codecs := range map[string][2]Codec{
		"both":   {misSized{Float16Codec{}, 1}, misSized{Float16Codec{}, 1}},
		"rank 0": {misSized{&OneBitCodec{}, 1}, &OneBitCodec{}},
		"rank 1": {&TopKCodec{}, misSized{&TopKCodec{}, -1}},
	} {
		_, _, _, errs := runPairSchedule(t, pairExchange, codecs, inputs, [2][]float32{})
		for r, err := range errs {
			if !isFrameLen(err) {
				t.Errorf("%s: rank %d got %v, want a frameLenError counting bytes", name, r, err)
			}
		}
	}

	const k = 3
	for liar := range k {
		meshes := transport.NewInProcMeshes(k)
		errs := make([]error, k)
		var wg sync.WaitGroup
		for r, m := range meshes {
			var codec Codec = &OneBitCodec{}
			if r == liar {
				codec = misSized{codec, 1}
			}
			bm, _ := transport.ByteLanes(m)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[r] = twoStages(bm, 1, r, allRanks(k), gradientInput(r, n, 0), codec, nil)
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if !isFrameLen(err) {
				t.Errorf("world %d, rank %d lies: rank %d got %v, want a frameLenError counting bytes", k, liar, r, err)
			}
		}
		for _, m := range meshes {
			m.Close()
		}
	}
}
