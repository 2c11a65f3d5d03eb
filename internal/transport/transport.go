// Package transport provides point-to-point float32 message channels
// between ranks — the wire layer under the comm package's collective
// algorithms, playing the role NCCL/Gloo's transports play under their
// collectives.
//
// Two meshes are provided: an in-process mesh over Go channels for
// single-process multi-goroutine "ranks", and a TCP full mesh for real
// multi-process training. Collective algorithms issue matching
// Send/Recv pairs; each mesh guarantees per-peer FIFO ordering, and tags
// let the algorithms assert that both sides agree on which logical
// message is in flight (mismatches surface as errors rather than
// corrupted reductions — the failure mode of Fig 3(a) in the paper).
//
// # TCP wire format
//
// Every message is one frame, all fields little-endian:
//
//	[tag uint64][count uint32][payload]
//
// The 12-byte header carries the collective's tag (for ordering
// verification) and the payload size. Two frame kinds share the header:
// float frames (count = element count, payload = count x float32) and
// byte frames (the count field's high bit set, low 31 bits = payload
// length in bytes, payload = raw bytes — the ByteMesh lane compressed
// gradients ride). Frames are encoded and decoded in bulk: the sender
// serializes header+payload into one reused buffer and issues a single
// Write; the receiver issues one ReadFull for the header and one for
// the payload, then converts in a single pass. There is no per-element
// I/O anywhere on the hot path.
//
// During mesh construction, each rank additionally sends a handshake
// immediately after dialing: its own rank (uint32), then the host
// component of its published listener address as a length-prefixed
// string ([len uint32][len bytes]) — the single source every rank
// labels every peer's host from (see HostLister), so topology
// derivation cannot disagree across ranks on multi-homed machines.
//
// # Abort semantics
//
// Both meshes support cancellation of in-flight operations, the
// mechanism elastic recovery uses to free ranks blocked on a dead peer:
//
//   - TCP meshes implement Aborter. Abort sets an immediate deadline on
//     every connection and closes them (plus the listener), so blocked
//     Send/Recv return errors wrapping ErrAborted instead of waiting on
//     a peer that will never answer. Abort and Close are idempotent and
//     may interleave in either order; both delete the rank's address
//     key from the rendezvous store.
//   - TCP mesh construction is abortable via NewTCPMeshCancel: closing
//     the cancel channel unblocks the rendezvous Get, dial, and accept
//     paths, releases the listener and partial connections, and removes
//     the rank's store keys.
//   - The in-process mesh reaches the same end through Close: frame
//     channels are never closed, but each rank has a shared `closed`
//     signal that both its own pending operations and its peers' select
//     on.
package transport

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
)

// Mesh is one rank's view of its point-to-point connectivity.
type Mesh interface {
	// Rank returns this participant's index in [0, Size).
	Rank() int
	// Size returns the number of participants.
	Size() int
	// Send delivers data to peer `to` with the given tag. The data is
	// copied (or serialized) before Send returns; callers may reuse it.
	Send(to int, tag uint64, data []float32) error
	// Recv returns the next message from peer `from`, which must carry
	// the expected tag. The returned buffer belongs to the caller, and
	// no mesh or decorator may keep a reference to it; a caller done
	// with it should hand it back with buffer.PutFloats so the next frame
	// reuses it (see internal/buffer).
	Recv(from int, tag uint64) ([]float32, error)
	// Close releases the mesh's resources.
	Close() error
}

// Aborter is implemented by meshes that can cancel in-flight Send/Recv
// calls: Abort unblocks them with errors wrapping ErrAborted. Unlike
// Close, Abort is safe to call while peers are mid-collective on a dead
// rank — it is the transport half of comm.AbortGroup.
type Aborter interface {
	Abort() error
}

// ByteMesh is the byte-frame lane of a mesh: the same per-peer FIFO
// links that carry float32 frames also carry opaque byte payloads, so
// compressed gradient representations travel at their true wire size
// instead of being re-inflated to float32 (the comm package's
// CompressedAllReduce rides this lane). Byte frames and float frames
// share each link's ordering and tag verification; receiving one kind
// while the sender shipped the other is a lane mismatch and surfaces as
// an error, exactly like a tag mismatch.
type ByteMesh interface {
	// SendBytes delivers raw bytes to peer `to` with the given tag. Like
	// Send, the payload is copied (or fully written) before SendBytes
	// returns, so callers may reuse it.
	SendBytes(to int, tag uint64, data []byte) error
	// RecvBytes returns the next byte frame from peer `from`, which must
	// carry the expected tag. Like Recv's, the buffer is the caller's,
	// to hand back with buffer.PutBytes.
	RecvBytes(from int, tag uint64) ([]byte, error)
}

// ByteLaneProber is implemented by mesh decorators, whose byte-lane
// support is that of the mesh they wrap. ByteLanes consults it so a
// wrapper over a float-only mesh is not mistaken for a byte-capable one
// just because the methods exist.
type ByteLaneProber interface {
	// HasByteLanes reports whether SendBytes/RecvBytes actually work.
	HasByteLanes() bool
}

// ByteLanes returns m's byte-frame lane when it has a working one. Both
// built-in meshes do; the compressed collectives refuse a mesh that
// does not (comm.ErrCompressionUnsupported).
func ByteLanes(m Mesh) (ByteMesh, bool) {
	bm, ok := m.(ByteMesh)
	if !ok {
		return nil, false
	}
	if p, ok := m.(ByteLaneProber); ok && !p.HasByteLanes() {
		return nil, false
	}
	return bm, true
}

// LaneMismatchError reports that a float32 frame arrived where a byte
// frame was expected (or vice versa) — the byte-lane analogue of a tag
// mismatch: the ranks' collective schedules disagree on the frame kind.
type LaneMismatchError struct {
	From    int
	WantRaw bool
	Tag     uint64
}

// Error names the expected and received lanes and the sending rank.
func (e *LaneMismatchError) Error() string {
	want, got := "byte", "float32"
	if !e.WantRaw {
		want, got = got, want
	}
	return fmt.Sprintf("transport: lane mismatch from rank %d at tag %d: expected a %s frame, got a %s frame (collective schedules disagree)", e.From, e.Tag, want, got)
}

// HostLister is implemented by meshes that know which host (machine)
// every rank runs on: Hosts returns one label per rank, index == rank.
// TCP meshes derive the labels from each rank's published rendezvous
// address; the comm layer turns them into a Topology so topology-aware
// collectives work without any extra configuration. The in-process
// mesh deliberately does not implement it — all its ranks share one
// process, so callers simulating multi-host layouts supply an explicit
// topology instead.
type HostLister interface {
	Hosts() []string
}

// TagMismatchError reports a collective-ordering violation: the message
// that arrived does not belong to the operation the receiver is running.
type TagMismatchError struct {
	From      int
	Want, Got uint64
}

// Error renders the mismatch with both tags and the sending rank, so a
// desynchronized schedule is diagnosable from the message alone.
func (e *TagMismatchError) Error() string {
	return fmt.Sprintf("transport: tag mismatch from rank %d: want %d, got %d (collective ordering violated)", e.From, e.Want, e.Got)
}

type frame struct {
	tag  uint64
	data []float32
	// raw/isRaw carry byte-lane frames (ByteMesh); isRaw distinguishes
	// an empty byte payload from a float frame.
	raw   []byte
	isRaw bool
}

// payloadLen is the frame's payload size in bytes (in-process frames
// carry no header), the sample the transport byte counters record.
func (f frame) payloadLen() int {
	if f.isRaw {
		return len(f.raw)
	}
	return 4 * len(f.data)
}

// inProcMesh is one rank's view of a shared channel matrix.
//
// Frame channels are never closed; instead each rank has a shared
// `closed` signal that both its own pending operations and its peers'
// select on. This is the abort path elastic recovery relies on: a rank
// blocked mid-collective on a dead peer — or a survivor told to tear
// its group down — unblocks with an error instead of deadlocking (the
// paper's Section 7 failure mode).
type inProcMesh struct {
	rank, size int
	// chans[from][to] carries frames from rank `from` to rank `to`.
	chans [][]chan frame
	// closed[r] is closed when rank r's view shuts down; shared by all
	// views so peers observe each other's departure.
	closed    []chan struct{}
	closeOnce *sync.Once
}

// NewInProcMeshes creates a fully-connected in-process mesh of n ranks
// and returns each rank's view. All views share the same channels.
func NewInProcMeshes(n int) []Mesh {
	chans := make([][]chan frame, n)
	for i := range chans {
		chans[i] = make([]chan frame, n)
		for j := range chans[i] {
			if i != j {
				chans[i][j] = make(chan frame, 128)
			}
		}
	}
	closed := make([]chan struct{}, n)
	for r := range closed {
		closed[r] = make(chan struct{})
	}
	meshes := make([]Mesh, n)
	for r := 0; r < n; r++ {
		meshes[r] = &inProcMesh{rank: r, size: n, chans: chans, closed: closed, closeOnce: new(sync.Once)}
	}
	return meshes
}

func (m *inProcMesh) Rank() int { return m.rank }
func (m *inProcMesh) Size() int { return m.size }

// Send copies data into a pooled frame buffer, which the receiver's
// Recv hands to its caller; a frame that was not delivered goes back to
// the pool here.
func (m *inProcMesh) Send(to int, tag uint64, data []float32) error {
	buf := buffer.GetFloats(len(data))
	copy(buf, data)
	err := m.send(to, frame{tag: tag, data: buf})
	if err != nil {
		buffer.PutFloats(buf)
	}
	return err
}

// SendBytes implements ByteMesh over the same frame channels as Send;
// byte and float frames share each link's FIFO order.
func (m *inProcMesh) SendBytes(to int, tag uint64, data []byte) error {
	buf := buffer.GetBytes(len(data))
	copy(buf, data)
	err := m.send(to, frame{tag: tag, raw: buf, isRaw: true})
	if err != nil {
		buffer.PutBytes(buf)
	}
	return err
}

func (m *inProcMesh) send(to int, f frame) error {
	if to == m.rank || to < 0 || to >= m.size {
		return fmt.Errorf("transport: invalid send target %d from rank %d", to, m.rank)
	}
	select {
	case <-m.closed[m.rank]:
		return fmt.Errorf("transport: mesh closed at rank %d", m.rank)
	default:
	}
	select {
	case m.chans[m.rank][to] <- f:
		localLink.sent(f.payloadLen())
		return nil
	case <-m.closed[m.rank]:
		return fmt.Errorf("transport: mesh closed at rank %d", m.rank)
	case <-m.closed[to]:
		return fmt.Errorf("transport: peer rank %d closed", to)
	}
}

func (m *inProcMesh) Recv(from int, tag uint64) ([]float32, error) {
	f, err := m.recv(from, tag, false)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// RecvBytes implements ByteMesh: it returns the next byte frame from
// the peer, erroring on tag or lane mismatches.
func (m *inProcMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	f, err := m.recv(from, tag, true)
	if err != nil {
		return nil, err
	}
	return f.raw, nil
}

func (m *inProcMesh) recv(from int, tag uint64, wantRaw bool) (frame, error) {
	if from == m.rank || from < 0 || from >= m.size {
		return frame{}, fmt.Errorf("transport: invalid recv source %d at rank %d", from, m.rank)
	}
	ch := m.chans[from][m.rank]
	// Drain buffered frames before honouring shutdown signals, so a
	// peer that completed its sends and then left cleanly does not turn
	// an orderly hand-off into an error.
	var f frame
	select {
	case f = <-ch:
	default:
		select {
		case f = <-ch:
		case <-m.closed[m.rank]:
			return frame{}, fmt.Errorf("transport: mesh closed at rank %d", m.rank)
		case <-m.closed[from]:
			// The peer may have delivered the frame concurrently with
			// closing; prefer the data if it is there.
			select {
			case f = <-ch:
			default:
				return frame{}, fmt.Errorf("transport: channel from rank %d closed", from)
			}
		}
	}
	if f.tag != tag {
		return frame{}, &TagMismatchError{From: from, Want: tag, Got: f.tag}
	}
	if f.isRaw != wantRaw {
		return frame{}, &LaneMismatchError{From: from, WantRaw: wantRaw, Tag: tag}
	}
	localLink.received(f.payloadLen())
	return f, nil
}

func (m *inProcMesh) Close() error {
	m.closeOnce.Do(func() { close(m.closed[m.rank]) })
	return nil
}

var _ ByteMesh = (*inProcMesh)(nil)
