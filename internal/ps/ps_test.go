package ps

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestPullPushRoundTrip(t *testing.T) {
	proto := models.NewMLP(1, 4, 6, 2)
	srv := NewServer(proto, 0.1)

	worker := models.NewMLP(2, 4, 6, 2) // different init
	if err := srv.Pull(worker); err != nil {
		t.Fatal(err)
	}
	for i, p := range worker.Parameters() {
		if !p.Value.Equal(proto.Parameters()[i].Value) {
			t.Fatal("pull did not copy server state")
		}
	}

	// Push a known gradient to one parameter.
	grads := make([]*tensor.Tensor, len(worker.Parameters()))
	g := tensor.Full(1, worker.Parameters()[0].Value.Shape()...)
	grads[0] = g.Reshape(-1)
	if err := srv.Push(grads); err != nil {
		t.Fatal(err)
	}
	snap := srv.snapshot()
	want := proto.Parameters()[0].Value.Reshape(-1)
	for j := 0; j < want.Size(); j++ {
		if math.Abs(float64(snap[0].At(j)-(want.At(j)-0.1))) > 1e-6 {
			t.Fatalf("server param[0][%d] = %v, want %v", j, snap[0].At(j), want.At(j)-0.1)
		}
	}
	if srv.pushCount() != 1 {
		t.Fatalf("pushes = %d", srv.pushCount())
	}
}

func TestPushValidation(t *testing.T) {
	srv := NewServer(models.NewMLP(1, 4, 6, 2), 0.1)
	if err := srv.Push(make([]*tensor.Tensor, 1)); err == nil {
		t.Fatal("wrong gradient count must error")
	}
	grads := make([]*tensor.Tensor, 6)
	grads[0] = tensor.New(3) // wrong size
	if err := srv.Push(grads); err == nil {
		t.Fatal("wrong gradient size must error")
	}
	if err := srv.Pull(models.NewMLP(1, 3, 3, 3)); err == nil {
		t.Fatal("mismatched worker must error")
	}
}

func TestNilGradientsSkipped(t *testing.T) {
	srv := NewServer(models.NewMLP(1, 4, 6, 2), 0.1)
	before := srv.snapshot()
	if err := srv.Push(make([]*tensor.Tensor, 6)); err != nil {
		t.Fatal(err)
	}
	after := srv.snapshot()
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatal("nil gradients must not move parameters")
		}
	}
}

// TestAsyncWorkersConverge: several workers hammer the server
// concurrently with no barrier; despite staleness, the model must still
// learn the synthetic task (the empirical claim behind async PS
// training).
func TestAsyncWorkersConverge(t *testing.T) {
	dataset := data.NewSynthetic(5, 1024, 16, 4)
	proto := models.NewMLP(3, 16, 24, 4)
	srv := NewServer(proto, 0.03)

	const workers, steps = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker := NewWorker(models.NewMLP(3, 16, 24, 4), srv)
			sampler, err := data.NewDistributedSampler(dataset.Len(), id, workers)
			if err != nil {
				t.Error(err)
				return
			}
			loader, err := data.NewLoader(dataset, sampler, 16)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < steps; i++ {
				x, labels := loader.Next()
				_, err := worker.Step(func() (float32, error) {
					out := worker.Model.Forward(autograd.Constant(x))
					loss := autograd.CrossEntropyLoss(out, labels)
					autograd.Backward(loss, nil)
					return loss.Value.Item(), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if srv.pushCount() != workers*steps {
		t.Fatalf("pushes = %d, want %d", srv.pushCount(), workers*steps)
	}

	// Evaluate the final server model.
	final := models.NewMLP(3, 16, 24, 4)
	if err := srv.Pull(final); err != nil {
		t.Fatal(err)
	}
	correct := 0
	const evalN = 256
	for i := 0; i < evalN; i++ {
		vec, label := dataset.Sample(i)
		x := tensor.FromSlice(append([]float32(nil), vec...), 1, 16)
		out := final.Forward(autograd.Constant(x))
		if tensor.ArgMaxRows(out.Value)[0] == label {
			correct++
		}
	}
	if acc := float64(correct) / evalN; acc < 0.7 {
		t.Fatalf("async PS training accuracy %.2f, want > 0.7", acc)
	}
}

// TestAsyncDiffersFromSyncTrajectory: the §2.2/§2.3 point — async
// updates are not mathematically equivalent to synchronized training.
func TestAsyncDiffersFromSyncTrajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandN(rng, 1, 8, 6)
	y := tensor.RandN(rng, 1, 8, 2)

	// Sync reference: single worker, two sequential pushes of the same
	// batch gradient.
	srvSync := NewServer(models.NewMLP(7, 6, 5, 2), 0.1)
	wSync := NewWorker(models.NewMLP(7, 6, 5, 2), srvSync)
	for i := 0; i < 2; i++ {
		if _, err := wSync.Step(func() (float32, error) {
			out := wSync.Model.Forward(autograd.Constant(x))
			autograd.Backward(autograd.MSELoss(out, autograd.Constant(y)), nil)
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Async: two workers pull the SAME initial parameters, then both
	// push — the second push is computed against stale state.
	srvAsync := NewServer(models.NewMLP(7, 6, 5, 2), 0.1)
	wa := NewWorker(models.NewMLP(7, 6, 5, 2), srvAsync)
	wb := NewWorker(models.NewMLP(7, 6, 5, 2), srvAsync)
	computeGrads := func(w *Worker) []*tensor.Tensor {
		nn.ZeroGrad(w.Model)
		out := w.Model.Forward(autograd.Constant(x))
		autograd.Backward(autograd.MSELoss(out, autograd.Constant(y)), nil)
		grads := make([]*tensor.Tensor, 0, len(w.Model.Parameters()))
		for _, p := range w.Model.Parameters() {
			grads = append(grads, p.Grad)
		}
		return grads
	}
	srvAsync.Pull(wa.Model)
	srvAsync.Pull(wb.Model) // both see the initial state
	ga := computeGrads(wa)
	gb := computeGrads(wb)
	srvAsync.Push(ga)
	srvAsync.Push(gb) // stale: computed before ga landed

	syncSnap := srvSync.snapshot()
	asyncSnap := srvAsync.snapshot()
	var diff float32
	for i := range syncSnap {
		if d := syncSnap[i].MaxAbsDiff(asyncSnap[i]); d > diff {
			diff = d
		}
	}
	if diff < 1e-6 {
		t.Fatal("async trajectory unexpectedly identical to sync")
	}
}

// pushCount returns how many gradient pushes the server has applied.
func (s *Server) pushCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes
}

// snapshot returns a copy of the authoritative parameters.
func (s *Server) snapshot() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = tensor.FromSlice(append([]float32(nil), sh.data...), len(sh.data))
		sh.mu.Unlock()
	}
	return out
}
