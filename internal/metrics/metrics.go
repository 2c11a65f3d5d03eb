package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; a scrape
// sees a point-in-time snapshot of every sample it renders (each sample
// is read atomically, families and children are copied under lock
// before encoding).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level
// instrument in this repository registers into, and the one ddptrain's
// -metrics-addr endpoint serves.
func Default() *Registry { return defaultRegistry }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label schema and a child per
// observed label-value combination.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histogram upper bounds, ascending, finite

	mu       sync.RWMutex
	children map[string]*child
}

// child is one (metric, label values) sample series. Scalar kinds use
// bits; histograms use counts/count/sumBits. Float values are stored as
// IEEE-754 bit patterns so they can be updated with atomic CAS without
// any per-sample lock.
type child struct {
	values  []string
	bits    atomic.Uint64   // counter/gauge value
	counts  []atomic.Uint64 // per-bucket (non-cumulative), len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// register returns the family for name, creating it on first use. A
// second registration with the same schema returns the existing family
// (idempotent, so package-level instruments can be declared wherever
// they are used); a schema mismatch panics — two call sites disagreeing
// on a metric's meaning is a programming error, not a runtime
// condition.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidLabel(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("metrics: conflicting registration of %q", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     k,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// with returns the child for the given label values, creating it on
// first use.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q expects %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		c.counts = make([]atomic.Uint64, len(f.bounds)+1)
	}
	f.children[key] = c
	return c
}

// Counter is a monotonically increasing sample series.
type Counter struct{ c *child }

// Inc adds 1.
func (c Counter) Inc() { addFloat(&c.c.bits, 1) }

// Add adds v, which must not be negative.
func (c Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter Add with negative value")
	}
	addFloat(&c.c.bits, v)
}

// Value returns the current count.
func (c Counter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// Gauge is a sample series that can go up and down.
type Gauge struct{ c *child }

// Set replaces the gauge's value.
func (g Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g Gauge) Add(v float64) { addFloat(&g.c.bits, v) }

// Histogram counts observations into fixed buckets and tracks their
// sum, rendering Prometheus's cumulative _bucket/_sum/_count series.
type Histogram struct {
	c      *child
	bounds []float64
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.c.counts[i].Add(1)
	h.c.count.Add(1)
	addFloat(&h.c.sumBits, v)
}

// Snapshot returns a point-in-time copy of the histogram's state.
// Concurrent observers may land between field reads; each individual
// field is consistent, which is all a monitoring read needs.
//
//ddplint:ignore reach comm's BenchmarkAllReduce reads the live histogram into BENCH_allreduce.json's hist_p50_ns, which ci/bench_check.sh gates
func (h Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.c.counts)),
		Count:  h.c.count.Load(),
		Sum:    math.Float64frombits(h.c.sumBits.Load()),
	}
	for i := range h.c.counts {
		s.Counts[i] = h.c.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a copied histogram state: Bounds are the finite
// upper bounds; Counts holds one non-cumulative count per bucket plus a
// final overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Quantile estimates the q-quantile (0 <= q <= 1) assuming observations
// are uniform within each bucket. The overflow bucket cannot be
// interpolated, so quantiles landing there return the largest finite
// bound. An empty histogram returns 0.
//
//ddplint:ignore reach comm's BenchmarkAllReduce reports hist_p50_ns and hist_p99_ns with it
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum float64
	for i, n := range s.Counts {
		prev := cum
		cum += float64(n)
		if cum < target || n == 0 {
			continue
		}
		if i == len(s.Bounds) { // overflow bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (s.Bounds[i]-lo)*(target-prev)/float64(n)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per declared
// label, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) Counter { return Counter{v.f.with(values)} }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) Gauge { return Gauge{v.f.with(values)} }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) Histogram {
	return Histogram{c: v.f.with(values), bounds: v.f.bounds}
}

// Counter registers (or finds) an unlabeled counter. The sample exists
// from registration, so the family appears in scrapes before the first
// event.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return Counter{f.with(nil)}
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return Gauge{f.with(nil)}
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// Histogram registers (or finds) an unlabeled histogram with the given
// ascending finite bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) Histogram {
	f := r.register(name, help, kindHistogram, nil, mustValidBounds(bounds))
	return Histogram{c: f.with(nil), bounds: f.bounds}
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, mustValidBounds(bounds))}
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start (> 0) and growing by factor (> 1) — the log-bucketed layout
// latency and size distributions want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets spans 1µs to ~67s in powers of two — wide enough for
// in-process collectives and multi-second recoveries alike.
var DurationBuckets = ExpBuckets(1e-6, 2, 27)

// SizeBuckets spans 64 B to ~4 GiB in powers of four, for payload and
// wire-byte histograms.
var SizeBuckets = ExpBuckets(64, 4, 14)

func mustValidBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return bounds
}

func mustValidName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

func mustValidLabel(name string) {
	if !validName(name, false) || name == "le" {
		panic(fmt.Sprintf("metrics: invalid label name %q", name))
	}
}

// validName checks Prometheus's identifier grammar; colons are legal in
// metric names but not label names.
func validName(s string, allowColon bool) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && allowColon:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
