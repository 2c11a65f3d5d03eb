package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/transport"
)

// frameSpy is a rank's mesh that records every byte frame handed to
// SendBytes before forwarding it.
type frameSpy struct {
	transport.Mesh
	mu     sync.Mutex
	frames []*byte
}

func (s *frameSpy) SendBytes(to int, tag uint64, data []byte) error {
	if len(data) > 0 {
		s.mu.Lock()
		s.frames = append(s.frames, unsafe.SliceData(data))
		s.mu.Unlock()
	}
	bm, _ := transport.ByteLanes(s.Mesh)
	return bm.SendBytes(to, tag, data)
}

func (s *frameSpy) RecvBytes(from int, tag uint64) ([]byte, error) {
	bm, _ := transport.ByteLanes(s.Mesh)
	return bm.RecvBytes(from, tag)
}

// TestAbortAfterSubmissionRestoresResidual: a compressed collective
// quantizes its contribution when it is submitted, so the residual has
// already moved when the group is aborted before its worker reaches the
// collective — it waits behind an AllReduce no peer joins. The abort
// fails both, puts every residual bit back, and hands every frame the
// submission built back to the buffer pool: the pool's next buffers
// of that size are those frames. Covered: the two-rank exchange (fp16),
// and stage 1's peer frames of CompressedReduceScatterV at world 3.
func TestAbortAfterSubmissionRestoresResidual(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name    string
		world   int
		frames  int
		collect func(g ProcessGroup, data, residual []float32) Work
	}{
		{"pair", 2, 1, func(g ProcessGroup, data, residual []float32) Work {
			return CompressedAllReduce(g, data, Avg, Float16Codec{}, residual)
		}},
		{"reduce-scatter-v world 3", 3, 2, func(g ProcessGroup, data, residual []float32) Work {
			return g.(ShardedGroup).CompressedReduceScatterV(data, Avg, Float16Codec{}, residual)
		}},
	} {
		meshes := transport.NewInProcMeshes(tc.world)
		spy := &frameSpy{Mesh: meshes[0]}
		g := NewGroup(spy, Options{})
		data, residual := gradientInput(0, n, 0), gradientInput(7, n, 1)
		before := slices.Clone(residual)
		blocker := g.AllReduce(make([]float32, 8), Sum)
		w := tc.collect(g, data, residual)
		if sameBits(residual, before) < 0 {
			t.Fatalf("%s: the residual is unchanged after submission; the contribution was not quantized then", tc.name)
		}
		if err := AbortGroup(g); err != nil {
			t.Fatalf("%s: abort: %v", tc.name, err)
		}
		if blocker.Wait() == nil || w.Wait() == nil {
			t.Fatalf("%s: a collective finished on an aborted group", tc.name)
		}
		if i := sameBits(residual, before); i >= 0 {
			t.Fatalf("%s: residual[%d] = %v after the abort, %v before the call", tc.name, i, residual[i], before[i])
		}
		if len(spy.frames) != tc.frames {
			t.Fatalf("%s: %d frames reached the mesh, want %d", tc.name, len(spy.frames), tc.frames)
		}
		for range tc.frames {
			size := Float16Codec{}.EncodedSize(n / tc.world)
			if tc.frames == 1 {
				size = Float16Codec{}.EncodedSize(n)
			}
			got := unsafe.SliceData(buffer.GetBytes(size))
			if !slices.Contains(spy.frames, got) {
				t.Fatalf("%s: the pool's next %d-byte buffer is not one of the frames the submission built", tc.name, size)
			}
		}
		for _, m := range meshes[1:] {
			m.Close()
		}
	}
}

// TestInFlightCompressedCollectivesShareOneBuffer pins what a compressed
// collective reads, and when: four of them, over the four quarters of one
// buffer and one residual, submitted with no Wait between them while the
// group's worker is still busy with an earlier collective. The first two
// have quantized their quarters — data and residual as the codec's Encode
// leaves them — before the worker reaches either (their submission read
// them); the other two wait for a launch slot (maxLaunched) and have not
// touched theirs yet. All four finish bitwise where the same collectives
// run one at a time do: the pair path at world 2 and the two stages at
// world 3.
func TestInFlightCompressedCollectivesShareOneBuffer(t *testing.T) {
	const n, parts = 4000, 4
	for _, world := range []int{2, 3} {
		name := fmt.Sprintf("world %d", world)
		inputs := func(r int) (data, residual []float32) {
			return gradientInput(r, n, 0), gradientInput(r+7, n, 1)
		}
		split := func(s []float32) (q [parts][]float32) {
			for i := range q {
				q[i] = s[i*n/parts : (i+1)*n/parts]
			}
			return q
		}

		// One at a time.
		want, wantRes := make([][]float32, world), make([][]float32, world)
		groups := NewInProcGroups(world, Options{})
		var wg sync.WaitGroup
		for r, g := range groups {
			want[r], wantRes[r] = inputs(r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, res := split(want[r]), split(wantRes[r])
				for i := range parts {
					if err := CompressedAllReduce(g, d[i], Avg, Float16Codec{}, res[i]).Wait(); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		closeAll(groups)

		// All in flight. Rank 0 submits behind an AllReduce that the
		// other ranks join only once it has checked its submissions.
		groups = NewInProcGroups(world, Options{})
		got, gotRes := make([][]float32, world), make([][]float32, world)
		checked := make(chan struct{})
		for r, g := range groups {
			got[r], gotRes[r] = inputs(r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r > 0 {
					<-checked
				}
				blocker := g.AllReduce(make([]float32, 8), Sum)
				d, res := split(got[r]), split(gotRes[r])
				var works [parts]Work
				for i := range parts {
					works[i] = CompressedAllReduce(g, d[i], Avg, Float16Codec{}, res[i])
				}
				if r == 0 {
					model, modelRes := inputs(0)
					m, mRes := split(model), split(modelRes)
					for i := range maxLaunched {
						// The pair path quantizes the whole quarter in
						// place, the two stages only rank 0's own chunk.
						deq := make([]float32, len(m[i]))
						Float16Codec{}.Encode(nil, m[i], mRes[i], deq)
						lo, hi := 0, len(deq)
						if world > 2 {
							lo, hi = chunkBounds(len(deq), world, 0)
						}
						copy(m[i][lo:hi], deq[lo:hi])
					}
					if i := sameBits(got[r], model); i >= 0 {
						t.Errorf("%s: after submission data[%d] = %v, want %v", name, i, got[r][i], model[i])
					}
					if i := sameBits(gotRes[r], modelRes); i >= 0 {
						t.Errorf("%s: after submission residual[%d] = %v, want %v", name, i, gotRes[r][i], modelRes[i])
					}
					close(checked)
				}
				errs := []error{blocker.Wait()}
				for _, w := range works {
					errs = append(errs, w.Wait())
				}
				if err := errors.Join(errs...); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		closeAll(groups)
		for r := range world {
			if i := sameBits(got[r], want[r]); i >= 0 {
				t.Fatalf("%s rank %d: data[%d] = %v in flight together, %v one at a time", name, r, i, got[r][i], want[r][i])
			}
			if i := sameBits(gotRes[r], wantRes[r]); i >= 0 {
				t.Fatalf("%s rank %d: residual[%d] = %v in flight together, %v one at a time", name, r, i, gotRes[r][i], wantRes[r][i])
			}
		}
	}
}
