package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(7)
	g.Add(-3)
	if got := math.Float64frombits(g.c.bits.Load()); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	r.Counter("c_total", "").Add(-1)
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("x_total", "h", "k")
	b := r.CounterVec("x_total", "h", "k")
	a.With("v").Add(2)
	if got := b.With("v").Value(); got != 2 {
		t.Fatalf("second registration sees %v, want 2 (same family)", got)
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "h", "k")
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	r.GaugeVec("x_total", "h", "k")
}

func TestLabelArityMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "2x", "has space", "dash-ed"} {
		func() {
			defer func() { _ = recover() }()
			r.Counter(bad, "")
			t.Fatalf("metric name %q accepted", bad)
		}()
	}
	func() {
		defer func() { _ = recover() }()
		r.CounterVec("ok_total", "", "le")
		t.Fatal(`label name "le" accepted`)
	}()
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 0, 1, 1} // le=1 gets both 0.5 and the exact bound 1
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Count != 4 || s.Sum != 551.5 {
		t.Fatalf("count/sum = %d/%v", s.Count, s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // all in first bucket
	}
	s := h.Snapshot()
	// Uniform-in-bucket assumption: median of 10 obs in (0,10] ≈ 5.
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	h.Observe(1000) // overflow bucket
	s = h.Snapshot()
	if got := s.Quantile(0.999); got != 30 {
		t.Fatalf("overflow quantile = %v, want largest finite bound 30", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", got)
		}
	}
	if len(DurationBuckets) != 27 || DurationBuckets[0] != 1e-6 {
		t.Fatalf("DurationBuckets = %v", DurationBuckets)
	}
}

// TestConcurrentRegistrationAndScrape hammers one registry from
// registering writers and scraping readers at once; run under -race it
// is the package's data-race gate.
func TestConcurrentRegistrationAndScrape(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w)
			for i := 0; i < iters; i++ {
				r.CounterVec("conc_events_total", "events", "worker").With(label).Inc()
				r.HistogramVec("conc_latency_seconds", "latency", DurationBuckets, "worker").
					With(label).Observe(float64(i) * 1e-6)
				r.Gauge("conc_last", "last value").Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if _, err := r.WriteTo(io.Discard); err != nil {
			t.Fatalf("scrape during writes: %v", err)
		}
		select {
		case <-done:
			var total float64
			for w := 0; w < workers; w++ {
				total += r.CounterVec("conc_events_total", "events", "worker").
					With(fmt.Sprintf("w%d", w)).Value()
			}
			if total != workers*iters {
				t.Fatalf("lost increments: %v, want %d", total, workers*iters)
			}
			return
		default:
		}
	}
}

func TestServeScrapeEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv_hits_total", "hits").Add(5)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(string(body), "srv_hits_total 5\n") {
		t.Fatalf("scrape body missing sample:\n%s", body)
	}
}

func TestQuantileInterpolatesAcrossBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hq_seconds", "", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	h.Observe(3.5)
	s := h.Snapshot()
	// target for q=0.75 is rank 3; cumulative hits 3rd bucket (2,4]
	// holding 2 obs with 2 already below: lo=2, interpolate (3-2)/2 of
	// the width 2 → 3.
	if got := s.Quantile(0.75); math.Abs(got-3) > 1e-12 {
		t.Fatalf("p75 = %v, want 3", got)
	}
}
