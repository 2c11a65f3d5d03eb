package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// The benchmarks quantify the bulk frame codec: the old wire path
// encoded and wrote float32s one element at a time (a 4-byte
// PutUint32 + bufio.Write per value); the current path serializes the
// whole frame into a reused buffer in one pass and issues a single
// Write. sendPerElementReference reproduces the old path exactly so
// the win stays measurable in-tree.

func sendPerElementReference(w *bufio.Writer, tag uint64, data []float32) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], tag)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// recvFrame reads and decodes one frame — the receive path, shared by
// the old and new senders.
func recvFrame(r io.Reader, scratch *[]byte) ([]float32, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	*scratch = grow(*scratch, 4*int(count))
	if _, err := io.ReadFull(r, *scratch); err != nil {
		return nil, err
	}
	out := make([]float32, count)
	decodePayload(*scratch, out)
	return out, nil
}

// loopbackPair returns two ends of a real TCP connection.
func loopbackPair(b *testing.B) (net.Conn, net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		b.Fatal(r.err)
	}
	b.Cleanup(func() { dial.Close(); r.conn.Close() })
	return dial, r.conn
}

var benchSizes = []int{1 << 10, 1 << 18, 1 << 20} // 4KB, 1MB, 4MB frames

// BenchmarkSendPerElementReference is the seed implementation's wire
// path: per-float32 encode+Write through bufio.
func BenchmarkSendPerElementReference(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dKB", 4*n/1024), func(b *testing.B) {
			b.ReportAllocs()
			sender, receiver := loopbackPair(b)
			data := make([]float32, n)
			for i := range data {
				data[i] = float32(i)
			}
			done := make(chan error, 1)
			go func() {
				var scratch []byte
				for i := 0; i < b.N; i++ {
					if _, err := recvFrame(receiver, &scratch); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			w := bufio.NewWriterSize(sender, 1<<16)
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sendPerElementReference(w, uint64(i), data); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMeshSendBulk is the current path, measured through the real
// tcpMesh Send/Recv: one bulk encode, one Write, one ReadFull.
func BenchmarkMeshSendBulk(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dKB", 4*n/1024), func(b *testing.B) {
			b.ReportAllocs()
			meshes := buildBenchMeshes(b, 2)
			data := make([]float32, n)
			for i := range data {
				data[i] = float32(i)
			}
			done := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, err := meshes[1].Recv(0, uint64(i)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := meshes[0].Send(1, uint64(i), data); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFrameEncode isolates the serialization itself (no network):
// bulk one-pass encode vs per-element encode into a discard writer.
func BenchmarkFrameEncode(b *testing.B) {
	const n = 1 << 18 // 1MB payload
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i)
	}
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, frameHeaderLen+4*n)
		b.SetBytes(int64(4 * n))
		for i := 0; i < b.N; i++ {
			encodeFrame(buf, uint64(i), data)
		}
	})
	b.Run("per-element", func(b *testing.B) {
		b.ReportAllocs()
		w := bufio.NewWriterSize(io.Discard, 1<<16)
		b.SetBytes(int64(4 * n))
		for i := 0; i < b.N; i++ {
			if err := sendPerElementReference(w, uint64(i), data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func buildBenchMeshes(b *testing.B, world int) []Mesh {
	b.Helper()
	srv, err := store.ServeTCP("127.0.0.1:0", 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	meshes := make([]Mesh, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			client, err := store.DialTCP(srv.Addr())
			if err != nil {
				errs[rank] = err
				return
			}
			meshes[rank], errs[rank] = NewTCPMesh(rank, world, client, "bench")
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}
