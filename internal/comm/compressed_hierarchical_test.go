package comm

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// compressedHierGroups builds groups configured for the compressed
// leader ring: Hierarchical algorithm over the given topology.
func compressedHierGroups(meshes []transport.Mesh, topo *Topology) []ProcessGroup {
	return groupsOver(meshes, Options{Algorithm: Hierarchical, Topology: topo})
}

// TestCompressedLeaderRingMatchesRingBitwise: with fp16 — exact on the
// small integers used here — the compressed leader ring must agree
// BITWISE with the plain Ring AllReduce on every rank, over two- and
// three-level topologies, in-proc and TCP, worlds up to 8. This is the
// determinism acceptance test for the compressed-hierarchical path: the
// codec round trip is lossless for this data, so any divergence is a
// scheduling bug, and any cross-rank disagreement breaks DDP's replica
// consistency invariant.
func TestCompressedLeaderRingMatchesRingBitwise(t *testing.T) {
	layouts := func(world int) map[string][]string {
		two := make([]string, world)
		three := make([]string, world)
		for r := 0; r < world; r++ {
			two[r] = fmt.Sprintf("h%d", r/2)
			three[r] = fmt.Sprintf("p%d/r%d/h%d", r/8, r/4, r/2)
		}
		return map[string][]string{"twolevel": two, "threelevel": three}
	}
	for _, tr := range []string{"inproc", "tcp"} {
		for _, world := range []int{4, 6, 8} {
			if tr == "tcp" && world != 8 {
				continue // one TCP world keeps socket churn bounded
			}
			for layoutName, labels := range layouts(world) {
				topo := NewTopology(labels)
				var meshes []transport.Mesh
				if tr == "inproc" {
					meshes = transport.NewInProcMeshes(world)
				} else {
					meshes = tcpTestMeshes(t, world)
				}
				const n = 1027
				rng := rand.New(rand.NewSource(int64(world * n)))
				inputs := make([][]float32, world)
				for r := range inputs {
					inputs[r] = make([]float32, n)
					for i := range inputs[r] {
						inputs[r][i] = float32(rng.Intn(101) - 50)
					}
				}
				want := make([]float32, n)
				for i := 0; i < n; i++ {
					for r := 0; r < world; r++ {
						want[i] += inputs[r][i]
					}
				}

				groups := compressedHierGroups(meshes, topo)
				bufs := make([][]float32, world)
				residuals := make([][]float32, world)
				runCollective(t, groups, func(rank int, g ProcessGroup) error {
					bufs[rank] = append([]float32(nil), inputs[rank]...)
					residuals[rank] = make([]float32, n)
					return CompressedAllReduce(g, bufs[rank], Sum, Float16Codec{}, residuals[rank]).Wait()
				})
				closeAll(groups)
				for r := 0; r < world; r++ {
					for i := 0; i < n; i++ {
						if bufs[r][i] != want[i] {
							t.Fatalf("%s/%s world=%d rank=%d elem %d: got %v want %v (exact)",
								tr, layoutName, world, r, i, bufs[r][i], want[i])
						}
					}
				}
				// Only the top-ring leaders quantize; everyone's
				// residual stays zero here because fp16 is exact on
				// this data, and non-leaders' must be untouched by
				// construction.
				for r := 0; r < world; r++ {
					for i, v := range residuals[r] {
						if v != 0 {
							t.Fatalf("%s/%s world=%d rank=%d residual[%d] = %v, want 0", tr, layoutName, world, r, i, v)
						}
					}
				}
			}
		}
	}
}

// TestCompressedLeaderRingAllRanksAgree: for the lossy codecs the
// reduced values legitimately differ from Ring's, but every rank must
// still finish bitwise-identical — and non-leader residuals must stay
// untouched while leader residuals accumulate the quantization error.
func TestCompressedLeaderRingAllRanksAgree(t *testing.T) {
	const world, n = 6, 500
	topo := NewTopology([]string{"a", "a", "a", "b", "b", "b"})
	for _, codec := range wireCodecs() {
		meshes := transport.NewInProcMeshes(world)
		groups := compressedHierGroups(meshes, topo)
		bufs := make([][]float32, world)
		residuals := make([][]float32, world)
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			bufs[rank] = make([]float32, n)
			for i := range bufs[rank] {
				bufs[rank][i] = float32(rank+1)*0.375 + float32(i%13)*0.1
			}
			residuals[rank] = make([]float32, n)
			return CompressedAllReduce(g, bufs[rank], Avg, codec, residuals[rank]).Wait()
		})
		closeAll(groups)
		for r := 1; r < world; r++ {
			for i := range bufs[0] {
				if bufs[r][i] != bufs[0][i] {
					t.Fatalf("%s: rank %d diverges at elem %d: %v vs %v", codec.Name(), r, i, bufs[r][i], bufs[0][i])
				}
			}
		}
		// Leaders are ranks 0 and 3; everyone else must have untouched
		// (zero) residuals regardless of codec loss.
		for _, r := range []int{1, 2, 4, 5} {
			for i, v := range residuals[r] {
				if v != 0 {
					t.Fatalf("%s: non-leader rank %d residual[%d] = %v, want 0", codec.Name(), r, i, v)
				}
			}
		}
	}
}

// crossHostByteMesh counts payload bytes crossing host boundaries on
// BOTH lanes. Unlike an interface-embedding wrapper, it forwards the
// byte lanes explicitly — embedding would hide the base mesh's
// ByteMesh from transport.ByteLanes, and the compressed collective
// would be refused with ErrCompressionUnsupported.
type crossHostByteMesh struct {
	transport.Mesh
	topo  *Topology
	cross *atomic.Int64
}

func (c *crossHostByteMesh) Send(to int, tag uint64, data []float32) error {
	if c.topo.hostOf(c.Rank()) != c.topo.hostOf(to) {
		c.cross.Add(int64(4 * len(data)))
	}
	return c.Mesh.Send(to, tag, data)
}

// SendBytes counts a crossing byte-lane frame and forwards it.
func (c *crossHostByteMesh) SendBytes(to int, tag uint64, data []byte) error {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return fmt.Errorf("crossHostByteMesh: base mesh has no byte lanes")
	}
	if c.topo.hostOf(c.Rank()) != c.topo.hostOf(to) {
		c.cross.Add(int64(len(data)))
	}
	return bm.SendBytes(to, tag, data)
}

// RecvBytes forwards a byte-lane receive.
func (c *crossHostByteMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, ok := transport.ByteLanes(c.Mesh)
	if !ok {
		return nil, fmt.Errorf("crossHostByteMesh: base mesh has no byte lanes")
	}
	return bm.RecvBytes(from, tag)
}

// HasByteLanes reports the base mesh's byte-lane support.
func (c *crossHostByteMesh) HasByteLanes() bool {
	_, ok := transport.ByteLanes(c.Mesh)
	return ok
}

// TestCompressedLeaderRingCutsCrossHostBytes is the acceptance
// criterion "compressed-hierarchical cuts cross-host bytes >= 1.9x
// (fp16) vs uncompressed hierarchical", measured at the transport
// layer: same topology, same payload, identical schedules except for
// the leader ring's representation.
func TestCompressedLeaderRingCutsCrossHostBytes(t *testing.T) {
	const world, n = 8, 64 << 10
	topo := NewTopology([]string{"a", "a", "a", "a", "b", "b", "b", "b"})
	measure := func(codec WireCodec) int64 {
		var cross atomic.Int64
		meshes := transport.NewInProcMeshes(world)
		groups := make([]ProcessGroup, world)
		for r := range groups {
			groups[r] = NewGroup(&crossHostByteMesh{Mesh: meshes[r], topo: topo, cross: &cross},
				Options{Algorithm: Hierarchical, Topology: topo})
		}
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			buf := make([]float32, n)
			for i := range buf {
				buf[i] = float32(rank) + float32(i%251)/16
			}
			res := make([]float32, n)
			return CompressedAllReduce(g, buf, Sum, codec, res).Wait()
		})
		closeAll(groups)
		return cross.Load()
	}
	plain := measure(nil)
	fp16 := measure(Float16Codec{})
	if plain == 0 || fp16 == 0 {
		t.Fatalf("no cross-host traffic measured: plain=%d fp16=%d", plain, fp16)
	}
	if ratio := float64(plain) / float64(fp16); ratio < 1.9 {
		t.Fatalf("fp16 leader ring cut cross-host bytes only %.2fx (plain %d, fp16 %d)", ratio, plain, fp16)
	}
}
