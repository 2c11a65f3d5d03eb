// Package fixture holds metrics usage the metricstatic analyzer must
// accept: instruments are package-level statics (or built in init),
// with label Vecs as the per-call dynamic axis.
package fixture

import "repro/internal/metrics"

var (
	mRequests = metrics.Default().CounterVec(
		"fixture_ok_requests_total", "requests by code", "code")
	mLatency = metrics.Default().Histogram(
		"fixture_ok_latency_seconds", "request latency", nil)
)

var mInInit metrics.Gauge

func init() {
	mInInit = metrics.Default().Gauge("fixture_ok_up", "set from init")
	mInInit.Set(1)
}

func observe(code string, d float64) {
	// With on a package-level Vec is the sanctioned dynamic path.
	mRequests.With(code).Inc()
	mLatency.Observe(d)
}

func snapshot() float64 {
	return mLatency.Snapshot().Quantile(0.5)
}
