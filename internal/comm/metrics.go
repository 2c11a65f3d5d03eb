package comm

import (
	"time"

	"repro/internal/metrics"
)

// Prometheus instruments for the collective hot path. Only successful
// collectives are observed: an aborted AllReduce (the elastic teardown
// path) measures time-to-abort, not collective latency, and would skew
// the distributions the paper's Figs 7–8 correspond to. Failures
// surface through errors and the elastic recovery counters instead.
var (
	mAllReduceDur = metrics.Default().HistogramVec(
		"comm_allreduce_duration_seconds",
		"AllReduce wall time from worker dispatch to completion, by resolved algorithm (compressed collectives report as \"compressed\").",
		metrics.DurationBuckets, "algorithm")
	mAllReduceBytes = metrics.Default().HistogramVec(
		"comm_allreduce_payload_bytes",
		"AllReduce payload size in uncompressed float32 bytes, by resolved algorithm.",
		metrics.SizeBuckets, "algorithm")
	mCompressedWireBytes = metrics.Default().HistogramVec(
		"comm_compressed_wire_bytes",
		"Encoded bytes this rank put on the byte lanes per compressed collective, by codec (a rank that shipped none, such as a non-leader of the compressed leader ring, is not observed).",
		metrics.SizeBuckets, "codec")
	mDroppedNonFinite = metrics.Default().Counter(
		"comm_dropped_nonfinite_total",
		"Non-finite gradient elements dropped by compression codecs; mirrors DroppedNonFinite().")
	mCollectiveDur = metrics.Default().HistogramVec(
		"comm_collective_duration_seconds",
		"Wall time of the collectives other than AllReduce (all_gather, reduce_scatter_v, all_gather_v, compressed_reduce_scatter_v) from worker dispatch to completion; AllReduce has its own per-algorithm family.",
		metrics.DurationBuckets, "collective")
	mCollectiveBytes = metrics.Default().HistogramVec(
		"comm_collective_payload_bytes",
		"Payload size of the collectives other than AllReduce in float32 bytes: the full vector the collective operates over (world*src for all_gather, the in-place buffer for the *_v sharded forms).",
		metrics.SizeBuckets, "collective")
)

// observeAllReduce records one completed collective under the resolved
// algorithm label.
func observeAllReduce(algo string, elems int, start time.Time, err error) {
	if err != nil {
		return
	}
	mAllReduceDur.With(algo).Observe(time.Since(start).Seconds())
	mAllReduceBytes.With(algo).Observe(float64(4 * elems))
}

// observeCollective records one completed collective other than
// AllReduce under its kind label. Like observeAllReduce, failures are not
// observed: an aborted collective measures time-to-abort, not latency.
func observeCollective(kind string, elems int, start time.Time, err error) {
	if err != nil {
		return
	}
	mCollectiveDur.With(kind).Observe(time.Since(start).Seconds())
	mCollectiveBytes.With(kind).Observe(float64(4 * elems))
}
