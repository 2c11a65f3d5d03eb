package ddp

import "repro/internal/metrics"

var (
	// mBucketReduceDur measures launch-to-completion per bucket: from the
	// moment the backward pass launched the bucket's AllReduce to the
	// moment finalizeBackward observed it done. This is the overlap
	// window Section 3.2.3 is about — time hidden behind the remaining
	// backward compute shows up here but not in step latency.
	mBucketReduceDur = metrics.Default().Histogram(
		"ddp_bucket_reduce_duration_seconds",
		"Per-bucket latency from AllReduce launch during backward to observed completion.",
		metrics.DurationBuckets)
	mBucketRebuilds = metrics.Default().Counter(
		"ddp_bucket_rebuilds_total",
		"Bucket layout rebuilds from rank 0's traced gradient-ready order (the one-shot Section 6.2.1 rebuild, re-armed by each process-group swap).")
)
