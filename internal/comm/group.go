package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
)

// Options configures a ProcessGroup.
type Options struct {
	// Algorithm selects the AllReduce implementation (default Ring).
	Algorithm Algorithm
	// Topology maps each rank to its host, for the topology-aware
	// algorithms (Hierarchical, Auto). When nil, the group derives one
	// from the transport if it knows peer placement (TCP meshes
	// implement transport.HostLister); an explicit Topology always
	// wins, which is how the elastic builders propagate the rendezvous
	// round's host layout and how tests lay out simulated hosts over
	// in-proc or loopback meshes.
	Topology *Topology
}

// queueDepth bounds a group's queued-but-unstarted collectives. DDP
// launches at most one AllReduce per bucket per iteration, so 1024 is
// generous.
const queueDepth = 1024

// meshGroup is a ProcessGroup over a point-to-point Mesh. A dedicated
// worker goroutine executes collectives in submission order — the
// analogue of the dedicated NCCL communication stream in Section 3.3.
type meshGroup struct {
	mesh transport.Mesh
	opts Options
	// topo is the resolved placement map (explicit Options.Topology, or
	// the transport's own, or nil when neither knows); immutable.
	topo *Topology

	mu      sync.Mutex
	nextTag uint64
	closed  bool
	ops     chan func()
	done    chan struct{}
	// sending counts submissions between tag reservation and the ops
	// enqueue; Close/Abort wait for it so the channel never closes
	// under an in-flight send even when the queue is full.
	sending sync.WaitGroup

	// launchMu guards the compressed collectives' launch slots (see
	// submitCompressed): launches is how many are launched and
	// unfinished, deferred those waiting for a slot, oldest first.
	launchMu sync.Mutex
	launches int
	deferred []*compressedCall
}

// NewGroup wraps a mesh in a ProcessGroup.
func NewGroup(mesh transport.Mesh, opts Options) ProcessGroup {
	g := &meshGroup{
		mesh: mesh,
		opts: opts,
		topo: resolveTopology(mesh, opts),
		ops:  make(chan func(), queueDepth),
		done: make(chan struct{}),
	}
	go g.worker()
	return g
}

// resolveTopology picks the group's placement map: an explicit
// Options.Topology wins, else a transport that knows peer placement
// (TCP meshes) supplies one, else nil (flat-world algorithms only).
func resolveTopology(mesh transport.Mesh, opts Options) *Topology {
	if opts.Topology != nil {
		return opts.Topology
	}
	if hl, ok := mesh.(transport.HostLister); ok {
		if hosts := hl.Hosts(); len(hosts) == mesh.Size() {
			return NewTopology(hosts)
		}
	}
	return nil
}

// NewInProcGroups creates `world` fully-connected in-process groups, one
// per goroutine rank. This is the fixture single-process tests and
// examples use.
func NewInProcGroups(world int, opts Options) []ProcessGroup {
	meshes := transport.NewInProcMeshes(world)
	groups := make([]ProcessGroup, world)
	for r := range groups {
		groups[r] = NewGroup(meshes[r], opts)
	}
	return groups
}

// NewTCPGroup creates this process's member of a TCP-connected group,
// rendezvousing through st. Name distinguishes independent groups that
// share a store (e.g. round-robin sub-groups).
func NewTCPGroup(rank, world int, st store.Store, name string, opts Options) (ProcessGroup, error) {
	return NewTCPGroupCancel(rank, world, st, name, opts, nil)
}

// NewTCPGroupCancel is NewTCPGroup with an abort handle for the mesh
// construction phase: closing cancel releases a rank blocked in
// rendezvous/dial/accept (because a peer died between seal and build)
// immediately instead of stalling it until the store timeout. See
// transport.NewTCPMeshCancel.
func NewTCPGroupCancel(rank, world int, st store.Store, name string, opts Options, cancel <-chan struct{}) (ProcessGroup, error) {
	mesh, err := transport.NewTCPMeshCancel(rank, world, st, "pg/"+name, cancel)
	if err != nil {
		return nil, fmt.Errorf("comm: building group %q: %w", name, err)
	}
	return NewGroup(mesh, opts), nil
}

func (g *meshGroup) worker() {
	for fn := range g.ops {
		fn()
	}
	close(g.done)
}

func (g *meshGroup) Rank() int { return g.mesh.Rank() }
func (g *meshGroup) Size() int { return g.mesh.Size() }

// submit enqueues a collective and returns its async handle. The tag
// counter advances identically on every rank because all ranks submit
// the same collectives in the same order (the paper's ProcessGroup
// contract); the transports verify it.
//
// The sender registers in g.sending under the mutex — before `closed`
// can flip — and enqueues outside it, so a full ops queue never makes
// a submission block while holding the lock (which would deadlock the
// Abort elastic recovery depends on). Close/Abort set `closed` first,
// then wait out registered senders before closing the channel, so no
// send can hit a closed channel.
func (g *meshGroup) submit(run func(tag uint64) error) Work {
	tag, w, err := g.reserve()
	if err != nil {
		return CompletedWork(err)
	}
	defer g.sending.Done()
	g.ops <- func() { w.finish(run(tag)) }
	return w
}

// reserve reserves the next tag and a handle for one collective and
// registers its sender in g.sending; unless it fails (a closed group),
// the caller enqueues exactly one op on g.ops and then calls
// g.sending.Done.
func (g *meshGroup) reserve() (tag uint64, w *pendingWork, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, nil, ErrClosed
	}
	tag = g.nextTag
	g.nextTag++
	g.sending.Add(1)
	return tag, newPendingWork(), nil
}

// resolveAlgorithm is the algorithm a collective over elems elements
// runs under: the configured one, with Auto resolved at submission so
// every rank — submitting the same collectives in the same order with
// equally-sized buffers (the ProcessGroup contract) — picks the same.
func (g *meshGroup) resolveAlgorithm(elems int) Algorithm {
	if g.opts.Algorithm == Auto {
		return chooseAlgorithm(g.topo, elems, g.mesh.Size())
	}
	return g.opts.Algorithm
}

func (g *meshGroup) AllReduce(data []float32, op ReduceOp) Work {
	if err := op.check(); err != nil {
		return CompletedWork(err)
	}
	algo := g.resolveAlgorithm(len(data))
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := allReduce(g.mesh, tag, algo, g.topo, data, op)
		observeAllReduce(algo.String(), len(data), start, err)
		return err
	})
}

func (g *meshGroup) Broadcast(data []float32, root int) Work {
	if root < 0 || root >= g.Size() {
		return CompletedWork(fmt.Errorf("comm: broadcast root %d out of range", root))
	}
	return g.submit(func(tag uint64) error {
		_, err := runSteps(run{m: g.mesh, rank: g.Rank(), tag: tag, name: "binomial broadcast", data: data}, binomialBroadcastSteps(g.Rank(), g.Size(), len(data), root))
		return err
	})
}

func (g *meshGroup) AllGather(dst [][]float32, src []float32) Work {
	world := g.Size()
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := allGather(g.mesh, tag, dst, src)
		observeCollective("all_gather", world*len(src), start, err)
		return err
	})
}

func (g *meshGroup) Barrier() Work {
	return g.submit(func(tag uint64) error {
		one := []float32{1}
		return ringAllReduce(g.mesh, tag, one, Sum)
	})
}

func (g *meshGroup) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	g.sending.Wait() // the worker keeps draining, so blocked senders finish
	close(g.ops)
	<-g.done
	return g.mesh.Close()
}

// Abort cancels the group: the mesh is closed FIRST, so collectives
// blocked on a dead peer error out instead of completing, then the
// worker drains. This is the teardown path elastic recovery uses when a
// rank vanishes mid-collective — a plain Close would wait forever for
// an AllReduce whose peer will never answer (the paper's Section 7
// deadlock scenario).
func (g *meshGroup) Abort() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	err := abortMesh(g.mesh) // unblocks in-flight Send/Recv with errors
	g.sending.Wait()         // queued ops now error fast, freeing blocked senders
	close(g.ops)
	<-g.done
	return err
}

// abortMesh cancels a mesh's in-flight operations, preferring the
// transport's dedicated Abort (TCP: deadline + close, deterministic
// ErrAborted errors) over a plain Close.
func abortMesh(m transport.Mesh) error {
	if a, ok := m.(transport.Aborter); ok {
		return a.Abort()
	}
	return m.Close()
}

// Aborter is implemented by ProcessGroups that can cancel in-flight
// collectives (meshGroup). AbortGroup prefers it over Close.
type Aborter interface {
	Abort() error
}

// AbortGroup tears pg down via Abort when available, falling back to
// Close. Use it when peers may no longer be responsive.
func AbortGroup(pg ProcessGroup) error {
	if a, ok := pg.(Aborter); ok {
		return a.Abort()
	}
	return pg.Close()
}

var _ ProcessGroup = (*meshGroup)(nil)
var _ Aborter = (*meshGroup)(nil)
