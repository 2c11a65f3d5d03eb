package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/store"
)

// hostLittleEndian reports whether the host's float32 memory layout
// already matches the little-endian wire format, enabling the
// zero-copy fast path (reinterpret the []float32 as bytes instead of
// converting element by element). Big-endian hosts fall back to the
// portable bulk codec.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float32Bytes reinterprets data as its underlying bytes without
// copying. Only valid when hostLittleEndian (the wire is defined as
// little-endian).
func float32Bytes(data []float32) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 4*len(data))
}

// ErrAborted is wrapped by every Send/Recv error after a mesh abort and
// by NewTCPMeshCancel when construction is cancelled, so callers (the
// comm worker, elastic recovery) can distinguish a deliberate teardown
// from a genuine wire failure.
var ErrAborted = errors.New("transport: mesh aborted")

// frameHeaderLen is the fixed frame prefix: [tag uint64][count uint32],
// little-endian, followed by the payload. See the package comment for
// the full wire contract.
const frameHeaderLen = 12

// rawFrameFlag marks a byte-lane frame in the header's count field: the
// low 31 bits then hold the payload length in BYTES (not float32
// words). Float frames never set it, so the two lanes share one
// connection and one FIFO without ambiguity. maxByteFrame is the
// largest payload those 31 bits can describe (and fits int on 32-bit
// platforms, unlike the flag itself).
const (
	rawFrameFlag uint32 = 1 << 31
	maxByteFrame        = 1<<31 - 1
)

// tcpMesh is a full mesh of TCP connections between ranks, established
// through a rendezvous store: every rank publishes its listener address,
// lower ranks accept from higher ranks, higher ranks dial lower ranks.
type tcpMesh struct {
	rank, size int
	ln         net.Listener
	peers      []*tcpPeer // indexed by peer rank; nil at own rank
	hosts      []string   // host part of each rank's published address

	// st/addrKey let teardown release this rank's rendezvous key so an
	// aborted or closed mesh leaves nothing behind in the store.
	st      store.Store
	addrKey string

	// aborted closes on Abort; Send/Recv consult it to turn the
	// resulting connection errors into ErrAborted-wrapped ones.
	aborted   chan struct{}
	abortOnce sync.Once
	teardown  sync.Once
}

type tcpPeer struct {
	conn net.Conn
	// link is the peer's locality instrument set (cross-host vs local),
	// resolved once at mesh build.
	link *linkCounters
	wmu  sync.Mutex
	rmu  sync.Mutex
	// wbuf/rbuf are reusable frame scratch buffers, guarded by wmu/rmu:
	// one bulk encode pass and one Write per Send, one ReadFull per
	// frame section on Recv — never a per-element syscall or copy loop
	// through a 4-byte window.
	wbuf []byte
	rbuf []byte
}

// NewTCPMesh builds rank's view of a TCP full mesh across `size`
// processes, using st for rendezvous under the given namespace prefix
// (distinct meshes — e.g. round-robin sub-groups — must use distinct
// prefixes).
func NewTCPMesh(rank, size int, st store.Store, prefix string) (Mesh, error) {
	return NewTCPMeshCancel(rank, size, st, prefix, nil)
}

// NewTCPMeshCancel is NewTCPMesh with an abort handle: closing cancel
// unblocks the rendezvous (store.Get of peer addresses), dialing, and
// accepting immediately, releases the listener plus any connections
// established so far, deletes this rank's address key, and returns an
// error wrapping ErrAborted. Elastic recovery closes cancel when the
// generation moves on mid-build — a worker that died between seal and
// mesh build must not stall survivors until the store timeout. A rank
// outside [0, size) is refused before anything listens or touches the
// store.
func NewTCPMeshCancel(rank, size int, st store.Store, prefix string, cancel <-chan struct{}) (Mesh, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d outside a mesh of size %d", rank, size)
	}
	if size == 1 {
		return &tcpMesh{rank: 0, size: 1, hosts: []string{"local"}, aborted: make(chan struct{})}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	key := func(r int) string { return prefix + "/addr/" + strconv.Itoa(r) }
	if err := st.Set(key(rank), []byte(ln.Addr().String())); err != nil {
		ln.Close()
		return nil, err
	}

	b := &meshBuilder{ln: ln, cancel: cancel, done: make(chan struct{})}
	if cancel != nil {
		go func() {
			select {
			case <-cancel:
				b.abort()
			case <-b.done:
			}
		}()
	}
	defer close(b.done)

	m := &tcpMesh{
		rank: rank, size: size, ln: ln,
		peers:   make([]*tcpPeer, size),
		hosts:   make([]string, size),
		st:      st,
		addrKey: key(rank),
		aborted: make(chan struct{}),
	}
	m.hosts[rank] = addrHost(ln.Addr().String())
	fail := func(err error) (Mesh, error) {
		b.closeAll()
		//ddplint:ignore storeerr failure path already aborting; the stale address key is harmless
		_ = st.Delete(key(rank))
		if b.cancelled() {
			return nil, fmt.Errorf("transport: mesh build: %w", ErrAborted)
		}
		return nil, err
	}

	// Accept one connection from every higher rank; the dialer announces
	// itself by sending its rank in the first 4 bytes.
	acceptErr := make(chan error, 1)
	expected := size - 1 - rank
	go func() {
		for i := 0; i < expected; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			if !b.track(conn) {
				acceptErr <- ErrAborted
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				acceptErr <- fmt.Errorf("transport: handshake read: %w", err)
				return
			}
			peer := int(binary.LittleEndian.Uint32(hdr[:]))
			if peer <= rank || peer >= size {
				acceptErr <- fmt.Errorf("transport: unexpected peer rank %d", peer)
				return
			}
			host, err := readHostAnnouncement(conn)
			if err != nil {
				acceptErr <- fmt.Errorf("transport: handshake host from rank %d: %w", peer, err)
				return
			}
			m.peers[peer] = newTCPPeer(conn, linkFor(host == m.hosts[rank]))
			// Topology: the handshake carries the host of the dialer's
			// PUBLISHED listener address, so every rank labels peer
			// `peer` from the same single source regardless of which
			// side dialed — multi-homed hosts cannot end up labeled
			// differently on different ranks, which would desynchronize
			// topology-derived algorithm selection. Feeds Hosts().
			// Disjoint slice elements, so this does not race the dial
			// loop's writes; the acceptErr receive below orders it
			// before any Hosts() read.
			m.hosts[peer] = host
		}
		acceptErr <- nil
	}()

	// Dial every lower rank.
	for peer := 0; peer < rank; peer++ {
		addrBytes, err := st.GetCancel(key(peer), cancel)
		if err != nil {
			return fail(fmt.Errorf("transport: rendezvous with rank %d: %w", peer, err))
		}
		m.hosts[peer] = addrHost(string(addrBytes))
		conn, err := b.dial(string(addrBytes))
		if err != nil {
			return fail(fmt.Errorf("transport: dial rank %d: %w", peer, err))
		}
		if err := writeHandshake(conn, rank, m.hosts[rank]); err != nil {
			return fail(fmt.Errorf("transport: handshake write to rank %d: %w", peer, err))
		}
		m.peers[peer] = newTCPPeer(conn, linkFor(m.hosts[peer] == m.hosts[rank]))
	}

	if err := <-acceptErr; err != nil {
		return fail(fmt.Errorf("transport: accept: %w", err))
	}
	// A cancel can land after the last handshake completed; finish()
	// arbitrates so we never hand back a mesh the abort path has
	// already torn down.
	if !b.finish() {
		return fail(fmt.Errorf("transport: mesh build: %w", ErrAborted))
	}
	return m, nil
}

// meshBuilder tracks every resource a mesh build opens so a concurrent
// cancel can release them all: the listener (unblocking Accept), each
// live connection (unblocking handshake reads), and in-flight dials
// (via the shared context).
type meshBuilder struct {
	ln     net.Listener
	cancel <-chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	conns    []net.Conn
	stopped  bool // no further connections may be tracked
	canceled bool // the user's cancel fired (vs an ordinary build error)
	finished bool // the build completed; a late cancel must not touch it
}

// track registers a connection for teardown; it reports false (closing
// the connection) when the build was already torn down.
func (b *meshBuilder) track(conn net.Conn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		conn.Close()
		return false
	}
	b.conns = append(b.conns, conn)
	return true
}

// dial connects to addr, aborting mid-dial if cancel fires.
func (b *meshBuilder) dial(addr string) (net.Conn, error) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	go func() {
		select {
		case <-b.cancelChan():
			stop()
		case <-ctx.Done():
		}
	}()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if !b.track(conn) {
		return nil, ErrAborted
	}
	return conn, nil
}

func (b *meshBuilder) cancelChan() <-chan struct{} {
	if b.cancel != nil {
		return b.cancel
	}
	return b.done
}

// abort flags cancellation and closes everything the build holds open.
// It races the success path through finish(): exactly one of them wins
// under the mutex, so a build never returns a mesh whose connections a
// late abort already closed.
func (b *meshBuilder) abort() {
	b.mu.Lock()
	if b.finished {
		b.mu.Unlock()
		return
	}
	b.canceled = true
	b.mu.Unlock()
	b.closeAll()
}

// finish marks the build complete, reporting false when cancellation
// won the race (the caller must fail with ErrAborted — its connections
// are already closed or about to be).
func (b *meshBuilder) finish() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.canceled {
		return false
	}
	b.finished = true
	return true
}

// closeAll releases the listener and every tracked connection (the
// failure path shared by cancellation and ordinary build errors).
func (b *meshBuilder) closeAll() {
	b.mu.Lock()
	b.stopped = true
	conns := b.conns
	b.conns = nil
	b.mu.Unlock()
	b.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (b *meshBuilder) cancelled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.canceled {
		return true
	}
	if b.cancel != nil {
		select {
		case <-b.cancel:
			return true
		default:
		}
	}
	return false
}

func newTCPPeer(conn net.Conn, link *linkCounters) *tcpPeer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &tcpPeer{conn: conn, link: link}
}

func (m *tcpMesh) Rank() int { return m.rank }
func (m *tcpMesh) Size() int { return m.size }

// Hosts returns the host component of every rank's published listener
// address — the mesh's auto-derived placement map (HostLister). Ranks
// whose addresses share a host share its NIC, which is exactly the
// sharing the hierarchical AllReduce exists to exploit.
func (m *tcpMesh) Hosts() []string { return append([]string(nil), m.hosts...) }

// addrHost extracts the host component of a host:port address,
// returning the whole string when it does not parse.
func addrHost(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}

// maxHostLen bounds the host label in the build handshake so a
// desynced or hostile stream cannot demand an absurd allocation.
const maxHostLen = 1 << 10

// writeHandshake sends the mesh-build announcement after dialing: the
// dialer's rank and the host of its published listener address.
func writeHandshake(conn net.Conn, rank int, host string) error {
	buf := make([]byte, 8+len(host))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(rank))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(host)))
	copy(buf[8:], host)
	_, err := conn.Write(buf)
	return err
}

// readHostAnnouncement reads the host half of the handshake (the rank
// was consumed by the caller to identify the peer first).
func readHostAnnouncement(conn net.Conn) (string, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxHostLen {
		return "", fmt.Errorf("host label of %d bytes exceeds limit %d", n, maxHostLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// grow returns buf resized to n bytes, reallocating only when the
// capacity is insufficient.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// encodeFrame fills buf (len frameHeaderLen+4*len(data)) with the wire
// frame for (tag, data) in one bulk pass.
func encodeFrame(buf []byte, tag uint64, data []float32) {
	binary.LittleEndian.PutUint64(buf[0:8], tag)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(data)))
	payload := buf[frameHeaderLen:]
	for i, v := range data {
		binary.LittleEndian.PutUint32(payload[4*i:4*i+4], math.Float32bits(v))
	}
}

// decodePayload converts a frame payload back to float32s in one bulk
// pass.
func decodePayload(payload []byte, out []float32) {
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i : 4*i+4]))
	}
}

// Send writes one frame in bulk. On little-endian hosts the payload
// goes out zero-copy: a writev (net.Buffers) of the 12-byte header and
// a byte view of the caller's slice — no per-element conversion, no
// staging buffer, one syscall. The write completes before Send
// returns, so the caller may reuse data (the Mesh contract). Portable
// fallback: one bulk encode into a reused buffer and a single Write.
func (m *tcpMesh) Send(to int, tag uint64, data []float32) error {
	if to == m.rank || to < 0 || to >= m.size {
		return fmt.Errorf("transport: invalid send target %d from rank %d", to, m.rank)
	}
	p := m.peers[to]
	if p == nil {
		return m.stateErr()
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if hostLittleEndian {
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint64(hdr[0:8], tag)
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
		bufs := net.Buffers{hdr[:], float32Bytes(data)}
		if _, err := bufs.WriteTo(p.conn); err != nil {
			return m.wireErr("send to", to, err)
		}
		p.link.sent(frameHeaderLen + 4*len(data))
		return nil
	}
	n := frameHeaderLen + 4*len(data)
	p.wbuf = grow(p.wbuf, n)
	encodeFrame(p.wbuf, tag, data)
	if _, err := p.conn.Write(p.wbuf); err != nil {
		return m.wireErr("send to", to, err)
	}
	p.link.sent(n)
	return nil
}

// SendBytes writes one byte-lane frame: the standard header with
// rawFrameFlag set (count = payload length in bytes) followed by the
// raw payload, written as a single writev so the lane shares Send's
// one-syscall property. The write completes before SendBytes returns,
// so the caller may reuse data.
func (m *tcpMesh) SendBytes(to int, tag uint64, data []byte) error {
	if to == m.rank || to < 0 || to >= m.size {
		return fmt.Errorf("transport: invalid send target %d from rank %d", to, m.rank)
	}
	if len(data) > maxByteFrame {
		return fmt.Errorf("transport: byte frame of %d bytes exceeds the wire limit", len(data))
	}
	p := m.peers[to]
	if p == nil {
		return m.stateErr()
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], tag)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data))|rawFrameFlag)
	bufs := net.Buffers{hdr[:], data}
	if _, err := bufs.WriteTo(p.conn); err != nil {
		return m.wireErr("send to", to, err)
	}
	p.link.sent(frameHeaderLen + len(data))
	return nil
}

// RecvBytes reads one byte-lane frame: header ReadFull, then the
// payload lands directly in the result slice, a pooled buffer that is
// the caller's to hand back (buffer.PutBytes). Tag and lane mismatches
// surface as their dedicated error types with the stream drained, so
// framing survives for callers that can continue.
func (m *tcpMesh) RecvBytes(from int, tag uint64) ([]byte, error) {
	if from == m.rank || from < 0 || from >= m.size {
		return nil, fmt.Errorf("transport: invalid recv source %d at rank %d", from, m.rank)
	}
	p := m.peers[from]
	if p == nil {
		return nil, m.stateErr()
	}
	p.rmu.Lock()
	defer p.rmu.Unlock()
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(p.conn, hdr[:]); err != nil {
		return nil, m.wireErr("recv header from", from, err)
	}
	gotTag := binary.LittleEndian.Uint64(hdr[0:8])
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if gotTag != tag || count&rawFrameFlag == 0 {
		if _, err := io.CopyN(io.Discard, p.conn, framePayloadLen(count)); err != nil {
			return nil, m.wireErr("recv payload from", from, err)
		}
		if gotTag != tag {
			return nil, &tagMismatchError{From: from, Want: tag, Got: gotTag}
		}
		return nil, &laneMismatchError{From: from, WantRaw: true, Tag: tag}
	}
	data := buffer.GetBytes(int(count &^ rawFrameFlag))
	if _, err := io.ReadFull(p.conn, data); err != nil {
		buffer.PutBytes(data)
		return nil, m.wireErr("recv payload from", from, err)
	}
	p.link.received(frameHeaderLen + len(data))
	return data, nil
}

// framePayloadLen is the byte length of a frame payload as declared by
// its header count field: raw frames count bytes, float frames count
// 4-byte words.
func framePayloadLen(count uint32) int64 {
	if count&rawFrameFlag != 0 {
		return int64(count &^ rawFrameFlag)
	}
	return 4 * int64(count)
}

// Recv reads one frame: one ReadFull for the header, one for the
// payload. On little-endian hosts the payload lands directly in the
// result slice (zero-copy, no decode pass); the portable fallback
// reads into a reused buffer and bulk-decodes. The result is a pooled
// buffer that is the caller's to hand back (buffer.PutFloats).
func (m *tcpMesh) Recv(from int, tag uint64) ([]float32, error) {
	if from == m.rank || from < 0 || from >= m.size {
		return nil, fmt.Errorf("transport: invalid recv source %d at rank %d", from, m.rank)
	}
	p := m.peers[from]
	if p == nil {
		return nil, m.stateErr()
	}
	p.rmu.Lock()
	defer p.rmu.Unlock()
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(p.conn, hdr[:]); err != nil {
		return nil, m.wireErr("recv header from", from, err)
	}
	gotTag := binary.LittleEndian.Uint64(hdr[0:8])
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if gotTag != tag || count&rawFrameFlag != 0 {
		// Check the tag BEFORE trusting count: a desynced stream (the
		// case this error exists for) yields garbage in both fields,
		// and allocating count floats could demand gigabytes. Drain
		// the claimed payload through a bounded buffer so framing is
		// preserved for callers that can continue.
		if _, err := io.CopyN(io.Discard, p.conn, framePayloadLen(count)); err != nil {
			return nil, m.wireErr("recv payload from", from, err)
		}
		if gotTag != tag {
			return nil, &tagMismatchError{From: from, Want: tag, Got: gotTag}
		}
		return nil, &laneMismatchError{From: from, WantRaw: false, Tag: tag}
	}
	data := buffer.GetFloats(int(count))
	if hostLittleEndian {
		if _, err := io.ReadFull(p.conn, float32Bytes(data)); err != nil {
			buffer.PutFloats(data)
			return nil, m.wireErr("recv payload from", from, err)
		}
	} else {
		p.rbuf = grow(p.rbuf, 4*int(count))
		if _, err := io.ReadFull(p.conn, p.rbuf); err != nil {
			buffer.PutFloats(data)
			return nil, m.wireErr("recv payload from", from, err)
		}
		decodePayload(p.rbuf, data)
	}
	p.link.received(frameHeaderLen + 4*int(count))
	return data, nil
}

// stateErr describes why a peer slot is unusable (abort, close, or a
// singleton mesh with no peers).
func (m *tcpMesh) stateErr() error {
	if m.isAborted() {
		return fmt.Errorf("transport: rank %d: %w", m.rank, ErrAborted)
	}
	return fmt.Errorf("transport: rank %d: no connection", m.rank)
}

// wireErr wraps a connection error, attributing it to the abort when
// one is in flight so blocked collectives fail with a deterministic
// cause rather than an incidental "use of closed network connection".
func (m *tcpMesh) wireErr(op string, peer int, err error) error {
	if m.isAborted() {
		return fmt.Errorf("transport: %s rank %d: %w", op, peer, ErrAborted)
	}
	return fmt.Errorf("transport: %s rank %d: %w", op, peer, err)
}

func (m *tcpMesh) isAborted() bool {
	select {
	case <-m.aborted:
		return true
	default:
		return false
	}
}

// release closes the listener and every connection exactly once, and
// deletes this rank's address key from the rendezvous store.
func (m *tcpMesh) release() error {
	var first error
	m.teardown.Do(func() {
		if m.ln != nil {
			first = m.ln.Close()
		}
		for _, p := range m.peers {
			if p != nil {
				if err := p.conn.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		if m.st != nil && m.addrKey != "" {
			//ddplint:ignore storeerr close is best-effort deregistration; a stale key is overwritten on rejoin
			_ = m.st.Delete(m.addrKey)
		}
	})
	return first
}

func (m *tcpMesh) Close() error { return m.release() }

// Abort tears the mesh down so that in-flight Send/Recv — possibly
// blocked forever on a peer that will never answer — return promptly
// with errors wrapping ErrAborted. Each connection gets an immediate
// deadline before it is closed, covering writers parked inside the
// kernel send path as well as blocked readers. Idempotent, and safe to
// interleave with Close in either order.
func (m *tcpMesh) Abort() error {
	m.abortOnce.Do(func() { close(m.aborted) })
	now := time.Now()
	for _, p := range m.peers {
		if p != nil {
			_ = p.conn.SetDeadline(now)
		}
	}
	return m.release()
}

var _ Mesh = (*tcpMesh)(nil)
var _ Aborter = (*tcpMesh)(nil)
var _ HostLister = (*tcpMesh)(nil)
var _ ByteMesh = (*tcpMesh)(nil)
