package store

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestInMemSetGet(t *testing.T) {
	s := NewInMem(time.Second)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestInMemGetBlocksUntilSet(t *testing.T) {
	s := NewInMem(5 * time.Second)
	done := make(chan []byte)
	go func() {
		v, _ := s.Get("later")
		done <- v
	}()
	time.Sleep(20 * time.Millisecond)
	s.Set("later", []byte("x"))
	select {
	case v := <-done:
		if string(v) != "x" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never unblocked")
	}
}

func TestInMemWaitTimeout(t *testing.T) {
	s := NewInMem(50 * time.Millisecond)
	if _, err := s.Get("never"); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestInMemAddConcurrent(t *testing.T) {
	s := NewInMem(0)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Add("n", 1)
		}()
	}
	wg.Wait()
	if got, _ := s.Add("n", 0); got != 20 {
		t.Fatalf("counter = %d, want 20", got)
	}
}

func TestInMemValueIsolation(t *testing.T) {
	s := NewInMem(time.Second)
	buf := []byte("abc")
	s.Set("k", buf)
	buf[0] = 'z'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("store must copy values")
	}
	got[0] = 'q'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("store must return copies")
	}
}

func TestTCPStoreRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, 5*time.Second)
	defer srv.Close()

	c, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set("greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("greeting")
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	n, err := c.Add("counter", 5)
	if err != nil || n != 5 {
		t.Fatalf("Add = %d, %v", n, err)
	}
	n, err = c.Add("counter", 2)
	if err != nil || n != 7 {
		t.Fatalf("Add = %d, %v", n, err)
	}
}

func TestTCPStoreMultipleClientsRendezvous(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, 5*time.Second)
	defer srv.Close()

	const world = 4
	var wg sync.WaitGroup
	errs := make(chan error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := DialTCP(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Each rank publishes its "address" then reads every
			// rank's, each Get blocking until that rank has published.
			if err := c.Set(fmt.Sprintf("addr/%d", rank), []byte{byte(rank)}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < world; i++ {
				v, err := c.Get(fmt.Sprintf("addr/%d", i))
				if err != nil || len(v) != 1 || v[0] != byte(i) {
					errs <- fmt.Errorf("rank %d read %v for peer %d: %v", rank, v, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPStoreBlockingGetAcrossClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, 5*time.Second)
	defer srv.Close()

	reader, _ := DialTCP(ln.Addr().String())
	defer reader.Close()
	writer, _ := DialTCP(ln.Addr().String())
	defer writer.Close()

	done := make(chan string, 1)
	go func() {
		v, _ := reader.Get("slow")
		done <- string(v)
	}()
	time.Sleep(30 * time.Millisecond)
	writer.Set("slow", []byte("arrived"))
	select {
	case v := <-done:
		if v != "arrived" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cross-client blocking Get never unblocked")
	}
}

func TestInMemGetCancel(t *testing.T) {
	s := NewInMem(30 * time.Second)
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.GetCancel("never", cancel)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCancel did not release on cancel")
	}

	// A cancel channel that never fires must not disturb a normal Get.
	idle := make(chan struct{})
	defer close(idle)
	go s.Set("present", []byte("v"))
	v, err := s.GetCancel("present", idle)
	if err != nil || string(v) != "v" {
		t.Fatalf("GetCancel = %q, %v", v, err)
	}
}
