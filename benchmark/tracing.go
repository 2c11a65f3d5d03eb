package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/transport"
)

// Span names. Phases are children of step; comm.<op> spans are children
// of the phase that launched them; transport and link spans are children
// of the collective executing on that rank's group worker.
const (
	spStep      = "step"
	spForward   = "forward"
	spBackward  = "backward"
	spOptimizer = "optimizer"
	spSend      = "transport.send"
	spRecv      = "transport.recv"
	spHold      = "link.hold"

	opAllReduce      = "comm.allreduce"
	opReduceScatterV = "comm.reduce_scatter_v"
	opAllGatherV     = "comm.all_gather_v"
	opCompressed     = "comm.compressed"
	opBroadcast      = "comm.broadcast"
	opAllGather      = "comm.all_gather"
	opBarrier        = "comm.barrier"
)

// spanNames indexes the names above; a stored span keeps the index.
var spanNames = []string{
	spStep, spForward, spBackward, spOptimizer, spSend, spRecv, spHold,
	opAllReduce, opReduceScatterV, opAllGatherV, opCompressed, opBroadcast, opAllGather, opBarrier,
}

func spanKind(name string) uint8 {
	for i, n := range spanNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("benchmark: unknown span name " + name)
}

// spanCap is the number of preallocated spans per traced run. A step
// records 70 to 160 spans a rank, so the layerSteps-long traced window
// with its set-up and warm-up traffic fills under a fifth of it; a span
// that does not fit is counted as dropped and fails the run.
const spanCap = 1 << 17

// span is one timed region. ID is the slot index plus one; Parent 0
// means no parent. N is the count taken at the same boundary: elements
// for comm spans, payload bytes for transport spans.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Rank    int32  `json:"rank"`
	Step    int32  `json:"step"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	N       int64  `json:"n,omitempty"`
}

// slot is a span as stored while recording. It holds no pointer, so the
// preallocated buffer costs the garbage collector nothing to scan and
// the traced run's collections stay as cheap as the untraced run's.
type slot struct {
	parent, rank, step int32
	kind               uint8
	start, n           int64
}

// recorder keeps spans in preallocated memory. A slot is claimed with
// one atomic add and written by the goroutine that begins the span, so
// concurrent recording needs no lock. End times live in their own
// atomic array because a collective's span is ended by whichever sees
// its completion first, the waiter goroutine or the caller's Wait; the
// first stamp wins.
type recorder struct {
	base    time.Time
	slots   []slot
	ends    []atomic.Int64
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), slots: make([]slot, spanCap), ends: make([]atomic.Int64, spanCap)}
}

// now is nanoseconds since the recorder's base, never 0 (0 marks an
// open span).
func (r *recorder) now() int64 { return max(1, int64(time.Since(r.base))) }

// begin opens a span and returns its id, or 0 when the buffer is full.
func (r *recorder) begin(name string, parent int32, rank, step int32, n int64) int32 {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.slots)) {
		r.dropped.Add(1)
		return 0
	}
	r.slots[i] = slot{parent: parent, rank: rank, step: step, kind: spanKind(name), start: r.now(), n: n}
	return int32(i + 1)
}

func (r *recorder) end(id int32) {
	if id > 0 {
		r.ends[id-1].CompareAndSwap(0, r.now())
	}
}

// record stores a span whose interval was measured by the caller.
func (r *recorder) record(name string, parent int32, rank, step int32, start, end time.Time, n int64) {
	if id := r.begin(name, parent, rank, step, n); id > 0 {
		r.slots[id-1].start = int64(start.Sub(r.base))
		r.ends[id-1].Store(max(1, int64(end.Sub(r.base))))
	}
}

// finished returns the recorded spans, with end time 0 for a span never
// ended; call it once the traced window is over.
func (r *recorder) finished() []span {
	out := make([]span, min(r.next.Load(), int64(len(r.slots))))
	for i := range out {
		s := &r.slots[i]
		out[i] = span{
			ID: int32(i + 1), Parent: s.parent, Name: spanNames[s.kind], Rank: s.rank, Step: s.step,
			StartNS: s.start, EndNS: r.ends[i].Load(), N: s.n,
		}
	}
	return out
}

func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.finished()); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}

type phase int

const (
	phNone phase = iota
	phForward
	phBackward
	phOptimizer
	numPhases
)

var phaseSpan = [numPhases]string{phForward: spForward, phBackward: spBackward, phOptimizer: spOptimizer}

// rankTrace is one rank's tracing state. The step and phase fields
// belong to the training goroutine, which is also the goroutine that
// launches and waits on collectives; the launch list is shared with the
// goroutines that send and receive frames.
type rankTrace struct {
	rec  *recorder
	rank int32

	step     int32 // -1 outside the traced window
	stepSpan int32
	phase    phase
	phaseID  int32
	// waitNS[p][step] is the time the training goroutine spent blocked
	// in Work.Wait during phase p of that step: communication that was
	// not hidden behind compute.
	waitNS [numPhases][]int64

	mu       sync.Mutex
	launched []int32 // comm span ids in launch order
	cursor   int     // index into launched of the collective now executing
	lastTag  uint64
	haveTag  bool
}

func newRankTrace(rec *recorder, rank int) *rankTrace {
	return &rankTrace{rec: rec, rank: int32(rank), step: -1, launched: make([]int32, 0, 1<<16)}
}

// resetWaits sizes the wait accounting for a traced window of n steps.
func (t *rankTrace) resetWaits(n int) {
	for p := range t.waitNS {
		t.waitNS[p] = make([]int64, n)
	}
}

// The step and phase methods are nil-safe so the untraced loop calls
// them unconditionally.

func (t *rankTrace) beginStep(i int) {
	if t == nil {
		return
	}
	t.step = int32(i)
	t.stepSpan = t.rec.begin(spStep, 0, t.rank, t.step, 0)
}

func (t *rankTrace) endStep() {
	if t == nil {
		return
	}
	t.rec.end(t.stepSpan)
	t.step, t.stepSpan = -1, 0
}

func (t *rankTrace) beginPhase(p phase) {
	if t == nil {
		return
	}
	t.phase = p
	t.phaseID = t.rec.begin(phaseSpan[p], t.stepSpan, t.rank, t.step, 0)
}

func (t *rankTrace) endPhase() {
	if t == nil {
		return
	}
	t.rec.end(t.phaseID)
	t.phase, t.phaseID = phNone, 0
}

// parentFor maps a frame's tag to the collective it belongs to. A group
// runs its collectives serially, in launch order, each under a tag of
// its own, so the k-th distinct tag a rank's mesh sees belongs to the
// k-th collective that rank launched. Going by tags rather than by
// observed completion keeps the attribution exact when the waiter
// goroutine is scheduled late on a busy core.
func (t *rankTrace) parentFor(tag uint64) (id, step int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.haveTag && tag != t.lastTag {
		t.cursor++
	}
	t.haveTag, t.lastTag = true, tag
	if t.cursor >= len(t.launched) {
		return 0, -1
	}
	id = t.launched[t.cursor]
	if id == 0 {
		return 0, -1
	}
	return id, t.rec.slots[id-1].step
}

// tracedWork charges the time the training goroutine spends blocked in
// Wait to the current phase. It waits on the inner handle directly, so
// the traced run wakes up exactly as the untraced one does.
type tracedWork struct {
	inner comm.Work
	t     *rankTrace
	id    int32
}

func (w *tracedWork) Wait() error {
	start := time.Now()
	err := w.inner.Wait()
	t := w.t
	t.rec.end(w.id)
	if t.step >= 0 {
		t.waitNS[t.phase][t.step] += int64(time.Since(start))
	}
	return err
}

// tracedGroup decorates a process group: every collective becomes a
// span from launch to completion. It embeds comm.ShardedGroup so the
// remaining methods, and any added later, promote unchanged; it also
// forwards comm.GradientCompressor and comm.Aborter.
type tracedGroup struct {
	comm.ShardedGroup
	t *rankTrace
}

func newTracedGroup(inner comm.ProcessGroup, t *rankTrace) *tracedGroup {
	return &tracedGroup{ShardedGroup: inner.(comm.ShardedGroup), t: t}
}

func (g *tracedGroup) launch(op string, elems int, start func() comm.Work) comm.Work {
	t := g.t
	id := t.rec.begin(op, t.phaseID, t.rank, t.step, int64(elems))
	t.mu.Lock()
	t.launched = append(t.launched, id)
	t.mu.Unlock()
	inner := start()
	// The waiter observes the completion of a collective nobody is
	// waiting for yet: one that compute is hiding. It exits when the
	// collective completes or the group is torn down.
	go func() {
		_ = inner.Wait() // the error belongs to the caller's Wait
		t.rec.end(id)
	}()
	return &tracedWork{inner: inner, t: t, id: id}
}

func (g *tracedGroup) AllReduce(data []float32, op comm.ReduceOp) comm.Work {
	return g.launch(opAllReduce, len(data), func() comm.Work { return g.ShardedGroup.AllReduce(data, op) })
}

func (g *tracedGroup) Broadcast(data []float32, root int) comm.Work {
	return g.launch(opBroadcast, len(data), func() comm.Work { return g.ShardedGroup.Broadcast(data, root) })
}

func (g *tracedGroup) AllGather(dst [][]float32, src []float32) comm.Work {
	return g.launch(opAllGather, len(src), func() comm.Work { return g.ShardedGroup.AllGather(dst, src) })
}

func (g *tracedGroup) Barrier() comm.Work {
	return g.launch(opBarrier, 0, func() comm.Work { return g.ShardedGroup.Barrier() })
}

func (g *tracedGroup) ReduceScatterV(data []float32, op comm.ReduceOp) comm.Work {
	return g.launch(opReduceScatterV, len(data), func() comm.Work { return g.ShardedGroup.ReduceScatterV(data, op) })
}

func (g *tracedGroup) AllGatherV(data []float32) comm.Work {
	return g.launch(opAllGatherV, len(data), func() comm.Work { return g.ShardedGroup.AllGatherV(data) })
}

func (g *tracedGroup) CompressedReduceScatterV(data []float32, op comm.ReduceOp, codec comm.WireCodec, residual []float32) comm.Work {
	return g.launch(opCompressed, len(data), func() comm.Work {
		return g.ShardedGroup.CompressedReduceScatterV(data, op, codec, residual)
	})
}

// CompressedAllReduce implements comm.GradientCompressor, so DDP's
// codec path keeps shipping real bytes through the decorator.
func (g *tracedGroup) CompressedAllReduce(data []float32, op comm.ReduceOp, codec comm.WireCodec, residual []float32) comm.Work {
	return g.launch(opCompressed, len(data), func() comm.Work {
		return comm.CompressedAllReduce(g.ShardedGroup, data, op, codec, residual)
	})
}

// Abort implements comm.Aborter.
func (g *tracedGroup) Abort() error { return comm.AbortGroup(g.ShardedGroup) }

var (
	_ comm.ShardedGroup       = (*tracedGroup)(nil)
	_ comm.GradientCompressor = (*tracedGroup)(nil)
	_ comm.Aborter            = (*tracedGroup)(nil)
)

// tracedMesh decorates a mesh: every Send and Recv becomes a span under
// the collective that issued it, carrying the payload bytes. It embeds
// transport.Mesh and forwards byte lanes, transport.HostLister and
// transport.Aborter.
type tracedMesh struct {
	transport.Mesh
	bytes transport.ByteMesh
	t     *rankTrace
}

func newTracedMesh(inner transport.Mesh, t *rankTrace) *tracedMesh {
	bm, _ := transport.ByteLanes(inner)
	if sm, ok := inner.(*shapedMesh); ok {
		sm.onHold = func(tag uint64, start, end time.Time) {
			parent, step := t.parentFor(tag)
			t.rec.record(spHold, parent, t.rank, step, start, end, 0)
		}
	}
	return &tracedMesh{Mesh: inner, bytes: bm, t: t}
}

func (m *tracedMesh) HasByteLanes() bool { return m.bytes != nil }

// Hosts implements transport.HostLister; nil when the inner mesh does
// not know placement, which comm treats as no topology.
func (m *tracedMesh) Hosts() []string {
	if hl, ok := m.Mesh.(transport.HostLister); ok {
		return hl.Hosts()
	}
	return nil
}

// Abort implements transport.Aborter.
func (m *tracedMesh) Abort() error {
	if a, ok := m.Mesh.(transport.Aborter); ok {
		return a.Abort()
	}
	return m.Mesh.Close()
}

func (m *tracedMesh) begin(name string, tag uint64, n int) int32 {
	parent, step := m.t.parentFor(tag)
	return m.t.rec.begin(name, parent, m.t.rank, step, int64(n))
}

func (m *tracedMesh) Send(to int, tag uint64, data []float32) error {
	id := m.begin(spSend, tag, 4*len(data))
	err := m.Mesh.Send(to, tag, data)
	m.t.rec.end(id)
	return err
}

func (m *tracedMesh) Recv(from int, tag uint64) ([]float32, error) {
	id := m.begin(spRecv, tag, 0)
	data, err := m.Mesh.Recv(from, tag)
	m.t.rec.end(id)
	return data, err
}

func (m *tracedMesh) SendBytes(to int, tag uint64, data []byte) error {
	id := m.begin(spSend, tag, len(data))
	err := m.bytes.SendBytes(to, tag, data)
	m.t.rec.end(id)
	return err
}

func (m *tracedMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	id := m.begin(spRecv, tag, 0)
	data, err := m.bytes.RecvBytes(from, tag)
	m.t.rec.end(id)
	return data, err
}

var (
	_ transport.ByteMesh       = (*tracedMesh)(nil)
	_ transport.ByteLaneProber = (*tracedMesh)(nil)
	_ transport.HostLister     = (*tracedMesh)(nil)
	_ transport.Aborter        = (*tracedMesh)(nil)
)
