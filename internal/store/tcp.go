package store

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// The TCP store speaks a tiny gob-encoded request/response protocol.
// Each client connection is served by its own goroutine; blocking waits
// on one connection do not stall others.

type request struct {
	Op    string // "set", "get", "add", "delete", "cas", "watch"
	Key   string
	Value []byte
	Delta int64
	// Old carries the expected value for "cas" and the previous value
	// for "watch". OldSet distinguishes nil (absent) from empty, which
	// gob cannot.
	Old    []byte
	OldSet bool
}

type response struct {
	Value   []byte
	Counter int64
	Swapped bool
	Err     string
}

// tcpServer serves an InMem store over TCP. Rank 0 typically runs one.
type tcpServer struct {
	ln      net.Listener
	backing *InMem
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// ServeTCP serves a store on ln, which it closes on Close. Clients dial
// ln's address.
func ServeTCP(ln net.Listener, timeout time.Duration) *tcpServer {
	s := &tcpServer{ln: ln, backing: NewInMem(timeout), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Close stops the server, disconnecting any active clients.
func (s *tcpServer) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	// Unblock server-side waits so their goroutines can observe
	// shutdown and exit.
	s.backing.Close()
	s.wg.Wait()
	return err
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *tcpServer) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp response
		switch req.Op {
		case "set":
			if err := s.backing.Set(req.Key, req.Value); err != nil {
				resp.Err = err.Error()
			}
		case "get":
			v, err := s.backing.Get(req.Key)
			if err != nil {
				resp.Err = err.Error()
			}
			resp.Value = v
		case "add":
			n, err := s.backing.Add(req.Key, req.Delta)
			if err != nil {
				resp.Err = err.Error()
			}
			resp.Counter = n
		case "delete":
			if err := s.backing.Delete(req.Key); err != nil {
				resp.Err = err.Error()
			}
		case "cas":
			old := req.Old
			if !req.OldSet {
				old = nil
			} else if old == nil {
				old = []byte{}
			}
			ok, err := s.backing.CompareAndSwap(req.Key, old, req.Value)
			if err != nil {
				resp.Err = err.Error()
			}
			resp.Swapped = ok
		case "watch":
			prev := req.Old
			if !req.OldSet {
				prev = nil
			} else if prev == nil {
				prev = []byte{}
			}
			v, err := s.backing.Watch(req.Key, prev)
			if err != nil {
				resp.Err = err.Error()
			}
			resp.Value = v
		default:
			resp.Err = "store: unknown op " + req.Op
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// tcpClient is a Store backed by a remote tcpServer. Safe for concurrent
// use; requests are serialized over a single connection. Watch is the
// exception: because it can block server-side indefinitely, each Watch
// runs on its own short-lived connection so it never stalls the
// client's other operations (heartbeats in particular).
type tcpClient struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialTCP connects to a store server, retrying briefly so clients may
// start before the server finishes binding.
func DialTCP(addr string) (*tcpClient, error) {
	var conn net.Conn
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("store: dial %s: %w", addr, err)
	}
	return &tcpClient{addr: addr, conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// Close closes the client connection.
func (c *tcpClient) Close() error { return c.conn.Close() }

func (c *tcpClient) roundTrip(req request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(&req); err != nil {
		return response{}, fmt.Errorf("store: send: %w", err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		return response{}, fmt.Errorf("store: recv: %w", err)
	}
	if resp.Err != "" {
		// The server sends its errors as text; the store's sentinels
		// come back as themselves, so errors.Is matches them here as it
		// does in memory.
		for _, sentinel := range []error{ErrTimeout, ErrClosed, ErrCanceled} {
			if resp.Err == sentinel.Error() {
				return resp, sentinel
			}
		}
		return resp, fmt.Errorf("store: %s", resp.Err)
	}
	return resp, nil
}

// Set stores value under key on the server.
func (c *tcpClient) Set(key string, value []byte) error {
	_, err := c.roundTrip(request{Op: "set", Key: key, Value: value})
	return err
}

// Get blocks server-side until key exists.
func (c *tcpClient) Get(key string) ([]byte, error) {
	resp, err := c.roundTrip(request{Op: "get", Key: key})
	return resp.Value, err
}

// Add atomically adds delta to the server counter.
func (c *tcpClient) Add(key string, delta int64) (int64, error) {
	resp, err := c.roundTrip(request{Op: "add", Key: key, Delta: delta})
	return resp.Counter, err
}

// Delete removes key on the server.
func (c *tcpClient) Delete(key string) error {
	_, err := c.roundTrip(request{Op: "delete", Key: key})
	return err
}

// CompareAndSwap atomically swaps key's value on the server.
func (c *tcpClient) CompareAndSwap(key string, old, new []byte) (bool, error) {
	resp, err := c.roundTrip(request{Op: "cas", Key: key, Value: new, Old: old, OldSet: old != nil})
	return resp.Swapped, err
}

// Watch blocks until key's value differs from prev. It opens a
// dedicated connection for the duration of the watch so concurrent
// Set/Add/Get calls on this client are not blocked behind it.
func (c *tcpClient) Watch(key string, prev []byte) ([]byte, error) {
	side, err := DialTCP(c.addr)
	if err != nil {
		return nil, err
	}
	defer side.Close()
	resp, err := side.roundTrip(request{Op: "watch", Key: key, Old: prev, OldSet: prev != nil})
	return resp.Value, err
}

// GetCancel is Get with early release. Like Watch it runs on a
// dedicated connection (a server-side blocking Get would otherwise
// stall every other operation on the shared one); closing cancel closes
// that connection, releasing the caller immediately with ErrCanceled.
// The server-side waiter drains on its own at the store timeout.
func (c *tcpClient) GetCancel(key string, cancel <-chan struct{}) ([]byte, error) {
	if cancel == nil {
		return c.Get(key)
	}
	select {
	case <-cancel:
		return nil, ErrCanceled
	default:
	}
	side, err := DialTCP(c.addr)
	if err != nil {
		return nil, err
	}
	defer side.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-cancel:
			side.Close()
		case <-done:
		}
	}()
	resp, err := side.roundTrip(request{Op: "get", Key: key})
	if err != nil {
		select {
		case <-cancel:
			return nil, ErrCanceled
		default:
		}
		return nil, err
	}
	return resp.Value, nil
}

var _ Store = (*tcpClient)(nil)
