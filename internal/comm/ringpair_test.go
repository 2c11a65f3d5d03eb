package comm

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
)

// pairSpecials are the float32 bit patterns whose folds depend on which
// operand is which: signed zeros (Min, Max), infinities of both signs
// (Sum gives NaN, Prod with a zero too), subnormals, quiet and
// signalling NaNs of both signs with distinct payloads (every op: the
// hardware returns one operand's payload), and ordinary values.
var pairSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x807fffff, // smallest and largest subnormal
	0x7fc00001, 0xffc00002, 0x7fa00003, 0xffa00004, // qNaN, -qNaN, sNaN, -sNaN
	0x7fc12345, 0x7f7fffff, // another qNaN; MaxFloat32 (overflows under Sum)
	0x3f800000, 0xbf800000, 0x40600000, 0x3dcccccd, // 1, -1, 3.5, 0.1
}

// pairInput is rank's adversarial buffer: every block of
// len(pairSpecials)² elements pairs each special value on rank 0 with
// each on rank 1 — so a NaN meets a number, a number a NaN, a NaN a NaN
// of another payload — and shift moves a chosen pairing onto a chosen
// index.
func pairInput(rank, n, shift int) []float32 {
	l := len(pairSpecials)
	data := make([]float32, n)
	for i := range data {
		j := (i + shift) % (l * l)
		if rank == 0 {
			j /= l
		}
		data[i] = math.Float32frombits(pairSpecials[j%l])
	}
	return data
}

// pairShifts lists the shifts a buffer of n elements is tested under.
// One or two elements cannot hold a block, so they walk through it;
// longer buffers put the pairings that tell operand roles apart (NaN on
// NaN, zero on the other zero, Inf on -Inf) on the last element of
// chunk 0 and on the first of chunk 1. stride thins the list where a
// collective is expensive.
func pairShifts(n, stride int) []int {
	l := len(pairSpecials)
	var shifts []int
	if n == 0 {
		return []int{0}
	} else if n <= 3 {
		for v := 0; v < l*l; v++ {
			shifts = append(shifts, v)
		}
	} else {
		_, b := chunkBounds(n, 2, 0)
		for _, pairing := range [][2]int{{6, 7}, {8, 10}, {9, 6}, {0, 1}, {1, 0}, {2, 3}} {
			at := pairing[0]*l + pairing[1]
			shifts = append(shifts, (at-b%(l*l)+l*l)%(l*l), (at-(b-1)%(l*l)+l*l)%(l*l))
		}
	}
	var thinned []int
	for i := 0; i < len(shifts); i += stride {
		thinned = append(thinned, shifts[i])
	}
	return thinned
}

var allOps = []ReduceOp{Sum, Prod, Min, Max, Avg}

// pairMeshes builds one mesh set of the given world on a transport.
func pairMeshes(t *testing.T, tr string, world int) []transport.Mesh {
	if tr == "tcp" {
		return tcpTestMeshes(t, world)
	}
	return transport.NewInProcMeshes(world)
}

// TestRingPairMatchesTwoPasses: between two ranks AllReduce(Ring) is one
// exchange with owner-ordered folds, and it must leave on both ranks,
// bit for bit, what ReduceScatterV followed by AllGatherV leaves — the
// two passes it replaces and the pair ZeRO still runs — for every op,
// on both sides of the size cutoff, on values whose fold depends on the
// operand roles. Nothing here may lean on a ∘ b == b ∘ a.
func TestRingPairMatchesTwoPasses(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4099, ringPairMaxElems - 1, ringPairMaxElems, ringPairMaxElems + 1}
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			groups := groupsOver(pairMeshes(t, tr, 2), Options{Algorithm: Ring})
			defer closeAll(groups)
			sharded := asSharded(t, groups)
			for _, n := range sizes {
				stride := 1
				if n > 4099 {
					stride = 12 // one shift: 1 MiB collectives, and -race runs them too
				} else if tr == "tcp" && n <= 3 {
					stride = 9
				}
				for _, shift := range pairShifts(n, stride) {
					in := [2][]float32{pairInput(0, n, shift), pairInput(1, n, shift)}
					for _, op := range allOps {
						var got, want [2][]float32
						runCollective(t, groups, func(rank int, _ ProcessGroup) error {
							g := sharded[rank]
							got[rank], want[rank] = slices.Clone(in[rank]), slices.Clone(in[rank])
							if err := g.AllReduce(got[rank], op).Wait(); err != nil {
								return err
							}
							if err := g.ReduceScatterV(want[rank], op).Wait(); err != nil {
								return err
							}
							return g.AllGatherV(want[rank]).Wait()
						})
						for rank := range got {
							if i := sameBits(got[rank], want[rank]); i >= 0 {
								t.Fatalf("%v n=%d shift=%d rank %d: element %d is %08x, the two passes leave %08x (inputs %08x, %08x)",
									op, n, shift, rank, i, math.Float32bits(got[rank][i]), math.Float32bits(want[rank][i]),
									math.Float32bits(in[0][i]), math.Float32bits(in[1][i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestHierarchicalLeaderPairMatchesTwoPasses: two hosts of two ranks
// meet in a leader ring of two, which is the same one exchange — over
// ranks 0 and 2, renumbered. The reference is the step list as it was
// before the exchange existed: up, the leaders' reduce-scatter and
// all-gather passes, down.
func TestHierarchicalLeaderPairMatchesTwoPasses(t *testing.T) {
	topo := NewTopology([]string{"a", "a", "b", "b"})
	leaders := topo.levelLeaders(0)
	reference := func(rank, n int) []step {
		up, ring, down := hierarchicalSteps(rank, n, topo)
		if me := slices.Index(leaders, rank); me >= 0 {
			ring = append(ringSteps(me, 2, n, me-1, true), ringSteps(me, 2, n, me, false)...)
			for i := range ring {
				ring[i].to, ring[i].from = leaders[ring[i].to], leaders[ring[i].from]
			}
		}
		return slices.Concat(up, ring, down)
	}
	// The leaders' buffers pair their specials like pairInput; the second
	// rank of each host contributes one ordinary value everywhere.
	input := func(rank, n, shift int) []float32 {
		if rank%2 == 0 {
			return pairInput(rank/2, n, shift)
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = 0.75
		}
		return data
	}
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			groups := groupsOver(pairMeshes(t, tr, 4), Options{Algorithm: Hierarchical, Topology: topo})
			defer closeAll(groups)
			refMeshes := pairMeshes(t, tr, 4)
			defer func() {
				for _, m := range refMeshes {
					m.Close()
				}
			}()
			tag := uint64(0)
			// The last size that takes the exchange and the first that does not.
			for _, n := range []int{0, 1, 2, 3, 4099, ringPairMaxElems, ringPairMaxElems + 1} {
				stride := 6
				if n > 4099 {
					stride = 12 // one shift: a NaN meets a NaN where the chunks meet
				} else if n <= 3 {
					stride = 17 // the arithmetic is TestRingPairMatchesTwoPasses' business
				}
				for _, shift := range pairShifts(n, stride) {
					var in [4][]float32
					for rank := range in {
						in[rank] = input(rank, n, shift)
					}
					for _, op := range allOps {
						tag++
						var got, want [4][]float32
						runCollective(t, groups, func(rank int, g ProcessGroup) error {
							got[rank], want[rank] = slices.Clone(in[rank]), slices.Clone(in[rank])
							if err := g.AllReduce(got[rank], op).Wait(); err != nil {
								return err
							}
							return stepsAllReduce(refMeshes[rank], tag, "reference", want[rank], op, reference(rank, n))
						})
						for rank := range got {
							if i := sameBits(got[rank], want[rank]); i >= 0 {
								t.Fatalf("%v n=%d shift=%d rank %d: element %d is %08x, the two-pass list leaves %08x",
									op, n, shift, rank, i, math.Float32bits(got[rank][i]), math.Float32bits(want[rank][i]))
							}
						}
					}
				}
			}
		})
	}
}

// hookMesh replaces a mesh's float Send or Recv (nil forwards).
type hookMesh struct {
	transport.Mesh
	send func(to int, tag uint64, data []float32) error
	recv func(from int, tag uint64) ([]float32, error)
}

func (m *hookMesh) Send(to int, tag uint64, data []float32) error {
	if m.send != nil {
		return m.send(to, tag, data)
	}
	return m.Mesh.Send(to, tag, data)
}

func (m *hookMesh) Recv(from int, tag uint64) ([]float32, error) {
	if m.recv != nil {
		return m.recv(from, tag)
	}
	return m.Mesh.Recv(from, tag)
}

// TestExchangeSendSeesThePreStepBuffer pins the contract the exchange
// step rests on: runSteps joins a step's send before the received frame
// lands, so a send still running when the frame arrives ships — and
// reads, which is what the race detector checks — the range as it was
// before the step, although the step receives into that very range.
func TestExchangeSendSeesThePreStepBuffer(t *testing.T) {
	const n = 4099
	meshes := transport.NewInProcMeshes(2)
	before := pairInput(0, n, 0)
	arrived := make(chan struct{})
	late := &hookMesh{Mesh: meshes[0]}
	late.recv = func(from int, tag uint64) ([]float32, error) {
		defer close(arrived)
		return meshes[0].Recv(from, tag)
	}
	late.send = func(to int, tag uint64, data []float32) error {
		// The peer's frame is in runSteps' hands and ours has not left:
		// leave room for a landing that does not wait for it.
		<-arrived
		time.Sleep(2 * time.Millisecond)
		if i := sameBits(data, before); i >= 0 {
			t.Errorf("the send found element %d already overwritten by the step's receive", i)
		}
		return meshes[0].Send(to, tag, data)
	}
	groups := groupsOver([]transport.Mesh{late, meshes[1]}, Options{Algorithm: Ring})
	defer closeAll(groups)
	var out [2][]float32
	runCollective(t, groups, func(rank int, g ProcessGroup) error {
		out[rank] = pairInput(rank, n, 0)
		return g.AllReduce(out[rank], Sum).Wait()
	})
	if i := sameBits(out[0], out[1]); i >= 0 {
		t.Fatalf("ranks disagree at element %d", i)
	}
}

// TestExchangePeerDiesMidStep: the peer takes this rank's frame — so the
// send is complete, and joined — and dies before shipping its own. The
// survivor must fail with the transport's own error, and every frame
// that was received must have gone back to the pool once: released
// frames are poisoned under the race detector and a frame released
// twice is handed to two senders, so the healthy exchange that follows
// checks both.
func TestExchangePeerDiesMidStep(t *testing.T) {
	const n = 4099
	errDied := errors.New("peer died")
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			meshes := pairMeshes(t, tr, 2)
			var seen error // what the survivor's transport reported
			survivor := &hookMesh{Mesh: meshes[0]}
			survivor.recv = func(from int, tag uint64) ([]float32, error) {
				buf, err := meshes[0].Recv(from, tag)
				seen = err
				return buf, err
			}
			taken := make(chan struct{})
			dying := &hookMesh{Mesh: meshes[1]}
			dying.recv = func(from int, tag uint64) ([]float32, error) {
				defer close(taken)
				return meshes[1].Recv(from, tag)
			}
			dying.send = func(int, uint64, []float32) error {
				<-taken
				meshes[1].Close()
				return errDied
			}
			groups := groupsOver([]transport.Mesh{survivor, dying}, Options{Algorithm: Ring})
			errs := make([]error, 2)
			runCollectiveAllowErr(t, groups, func(rank int, g ProcessGroup) error {
				errs[rank] = g.AllReduce(pairInput(rank, n, 0), Sum).Wait()
				return errs[rank]
			})
			for _, g := range groups {
				AbortGroup(g)
			}
			if !errors.Is(errs[1], errDied) {
				t.Fatalf("dying rank: got %v, want its send error", errs[1])
			}
			if errs[0] == nil || errs[0] != seen {
				t.Fatalf("survivor: got %v, want the transport's receive error %v", errs[0], seen)
			}

			groups = groupsOver(pairMeshes(t, tr, 2), Options{Algorithm: Ring})
			defer closeAll(groups)
			var out [2][]float32
			runCollective(t, groups, func(rank int, g ProcessGroup) error {
				out[rank] = pairInput(rank, n, 0)
				return g.AllReduce(out[rank], Max).Wait()
			})
			a, b, h := pairInput(0, n, 0), pairInput(1, n, 0), (n+1)/2
			reduceRange(a[:h], b[:h], Max) // chunk 0 folds on rank 0, its owner
			reduceRange(b[h:], a[h:], Max) // chunk 1 on rank 1
			for rank := range out {
				if i := sameBits(out[rank], append(a[:h:h], b[h:]...)); i >= 0 {
					t.Fatalf("after the aborted exchange rank %d has %v at element %d", rank, out[rank][i], i)
				}
			}
		})
	}
}
