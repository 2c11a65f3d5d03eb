package comm

import (
	"math/rand"
	"testing"
)

// TestDoubleTreeRelsShape verifies the structural invariants the
// double-tree construction promises, for every world size up to 64:
// each tree is a single rooted binary tree over all ranks, and no rank
// is an inner node in both trees (the full-bandwidth property; for odd
// k exactly one rank is a leaf in both, since 2*floor(k/2) < k).
func TestDoubleTreeRelsShape(t *testing.T) {
	for k := 1; k <= 64; k++ {
		t1, t2 := doubleTreeRels(k)
		for name, rel := range map[string][]treeRel{"t1": t1, "t2": t2} {
			roots := 0
			for r := 0; r < k; r++ {
				if len(rel[r].children) > 2 {
					t.Fatalf("k=%d %s rank %d has %d children", k, name, r, len(rel[r].children))
				}
				if rel[r].parent == -1 {
					roots++
				} else {
					// Parent/child pointers must agree.
					found := false
					for _, c := range rel[rel[r].parent].children {
						if c == r {
							found = true
						}
					}
					if !found {
						t.Fatalf("k=%d %s rank %d not among parent %d's children", k, name, r, rel[r].parent)
					}
				}
			}
			if roots != 1 {
				t.Fatalf("k=%d %s has %d roots", k, name, roots)
			}
			// Every rank reaches the root: the tree is connected.
			for r := 0; r < k; r++ {
				seen := 0
				for v := r; rel[v].parent != -1; v = rel[v].parent {
					if seen++; seen > k {
						t.Fatalf("k=%d %s rank %d: parent chain cycles", k, name, r)
					}
				}
			}
		}
		bothInner := 0
		for r := 0; r < k; r++ {
			if len(t1[r].children) > 0 && len(t2[r].children) > 0 {
				bothInner++
			}
		}
		if bothInner != 0 {
			t.Fatalf("k=%d: %d ranks are inner nodes in both trees", k, bothInner)
		}
	}
}

// TestDoubleTreePipelinedChunks exercises payloads whose halves span
// several pipeline chunks (the correctness sweep's payloads fit one),
// including a half that is an exact chunk multiple and one element
// over.
func TestDoubleTreePipelinedChunks(t *testing.T) {
	world := 6
	for _, n := range []int{4 * doubleTreeChunkElems, 4*doubleTreeChunkElems + 2, 5*doubleTreeChunkElems + 7} {
		rng := rand.New(rand.NewSource(int64(n)))
		inputs := make([][]float32, world)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Intn(201) - 100)
			}
		}
		run := func(algo Algorithm) [][]float32 {
			groups := NewInProcGroups(world, Options{Algorithm: algo})
			defer closeAll(groups)
			bufs := make([][]float32, world)
			runCollective(t, groups, func(rank int, g ProcessGroup) error {
				bufs[rank] = append([]float32(nil), inputs[rank]...)
				return g.AllReduce(bufs[rank], Sum).Wait()
			})
			return bufs
		}
		ring, dt := run(Ring), run(DoubleTree)
		for r := 0; r < world; r++ {
			for i := 0; i < n; i++ {
				if ring[r][i] != dt[r][i] {
					t.Fatalf("n=%d rank=%d elem %d: ring %v vs doubletree %v", n, r, i, ring[r][i], dt[r][i])
				}
			}
		}
	}
}

// TestDoubleTreeMatchesRingBitwiseTCP is the TCP half of the
// bitwise-vs-Ring acceptance: both trees' frames share real socket
// links (per-link FIFO, one tag), so a schedule whose two ends order a
// link's frames differently surfaces as a frame length error or
// divergent bits here.
func TestDoubleTreeMatchesRingBitwiseTCP(t *testing.T) {
	for _, world := range []int{2, 5, 8} {
		meshes := tcpTestMeshes(t, world)
		groups := groupsOver(meshes, Options{Algorithm: DoubleTree})
		const n = 2049
		rng := rand.New(rand.NewSource(int64(world)))
		inputs := make([][]float32, world)
		want := make([]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Intn(101) - 50)
				want[i] += inputs[r][i]
			}
		}
		bufs := make([][]float32, world)
		runCollective(t, groups, func(rank int, g ProcessGroup) error {
			bufs[rank] = append([]float32(nil), inputs[rank]...)
			// Two back-to-back collectives: a frame left over from the
			// first, or a tag consumed beyond its one, would
			// desynchronize the second.
			if err := g.AllReduce(bufs[rank], Sum).Wait(); err != nil {
				return err
			}
			return g.AllReduce(append([]float32(nil), inputs[rank]...), Sum).Wait()
		})
		closeAll(groups)
		for r := 0; r < world; r++ {
			for i := 0; i < n; i++ {
				if bufs[r][i] != want[i] {
					t.Fatalf("world=%d rank=%d elem %d: got %v want %v", world, r, i, bufs[r][i], want[i])
				}
			}
		}
	}
}
