// Package ps implements a parameter-server training substrate — the
// P2P-communication alternative the paper contrasts with AllReduce in
// Sections 2.3 and 7 (Li et al.'s parameter server, TF
// ParameterServerStrategy in Table 1). Workers independently pull the
// current parameters, compute gradients on their data shard, and push
// them; the server applies updates as they arrive (asynchronous SGD),
// so no global barrier exists and workers may compute gradients against
// stale parameters.
//
// The package exists as a measurable baseline: the paper's Table 1
// classifies DDP as Synchronous/Intra-iteration/Data-parallel and
// parameter servers as Asynchronous; the tests and the paramserver
// example show both the throughput appeal and the staleness cost.
package ps

import (
	"fmt"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Server holds the authoritative copy of the model parameters, sharded
// into one mutex-protected shard per parameter tensor so pushes to
// different layers proceed concurrently (the sharding real parameter
// servers use across machines).
type Server struct {
	shards []*shard
	lr     float32

	mu     sync.Mutex
	pushes int
}

type shard struct {
	mu   sync.Mutex
	data []float32
}

// NewServer initializes the server from a prototype module's current
// parameter values.
func NewServer(proto nn.Module, lr float32) *Server {
	params := proto.Parameters()
	s := &Server{shards: make([]*shard, len(params)), lr: lr}
	for i, p := range params {
		s.shards[i] = &shard{data: append([]float32(nil), p.Value.Data()...)}
	}
	return s
}

// Pull copies the current parameter values into the worker's module.
// Different shards may reflect different update counts — exactly the
// consistency model of an asynchronous parameter server.
func (s *Server) Pull(dst nn.Module) error {
	params := dst.Parameters()
	if len(params) != len(s.shards) {
		return fmt.Errorf("ps: worker has %d parameters, server %d", len(params), len(s.shards))
	}
	for i, p := range params {
		sh := s.shards[i]
		sh.mu.Lock()
		if p.Value.Size() != len(sh.data) {
			sh.mu.Unlock()
			return fmt.Errorf("ps: worker parameter %d has %d elements, shard %d", i, p.Value.Size(), len(sh.data))
		}
		copy(p.Value.Data(), sh.data)
		sh.mu.Unlock()
	}
	return nil
}

// Push applies a worker's gradients to the authoritative parameters
// with plain SGD, immediately and without coordination (async update).
// Parameters with nil gradients are skipped.
func (s *Server) Push(grads []*tensor.Tensor) error {
	if len(grads) != len(s.shards) {
		return fmt.Errorf("ps: pushed %d gradients, server has %d shards", len(grads), len(s.shards))
	}
	for i, g := range grads {
		if g == nil {
			continue
		}
		sh := s.shards[i]
		sh.mu.Lock()
		if len(sh.data) != g.Size() {
			sh.mu.Unlock()
			return fmt.Errorf("ps: gradient %d has %d elements, shard %d", i, g.Size(), len(sh.data))
		}
		gd := g.Data()
		for j := range sh.data {
			sh.data[j] -= s.lr * gd[j]
		}
		sh.mu.Unlock()
	}
	s.mu.Lock()
	s.pushes++
	s.mu.Unlock()
	return nil
}

// Worker couples a local model replica with a server. Each Step pulls,
// computes gradients via the supplied closure, and pushes — the
// pull/compute/push loop of asynchronous data parallel training.
type Worker struct {
	Model  nn.Module
	server *Server
}

// NewWorker attaches a local replica to the server.
func NewWorker(model nn.Module, server *Server) *Worker {
	return &Worker{Model: model, server: server}
}

// Step performs one asynchronous iteration: pull current parameters,
// run compute (which must populate parameter gradients), push them.
// compute returns the loss for reporting.
func (w *Worker) Step(compute func() (float32, error)) (float32, error) {
	if err := w.server.Pull(w.Model); err != nil {
		return 0, err
	}
	nn.ZeroGrad(w.Model)
	loss, err := compute()
	if err != nil {
		return 0, err
	}
	grads := make([]*tensor.Tensor, 0, len(w.Model.Parameters()))
	for _, p := range w.Model.Parameters() {
		grads = append(grads, p.Grad)
	}
	if err := w.server.Push(grads); err != nil {
		return 0, err
	}
	return loss, nil
}
