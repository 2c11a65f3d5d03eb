package reduce

import "fmt"

// DefaultBucketCapBytes is the paper's 25MB default for bucket_cap_mb
// (Section 4.2, "Bucket Allreduce"), the cap ddp and fsdp pack under
// when their Options leave it zero.
const DefaultBucketCapBytes = 25 << 20

// Assignment is a parameter-to-bucket mapping (paper Section 4.2,
// "Parameter-to-Bucket Mapping"). Bucket 0 is the first bucket expected
// to become ready during the backward pass, i.e. it holds the
// parameters whose gradients are computed first.
type Assignment struct {
	// Buckets lists, per bucket, the parameter indices it contains
	// (indices into the model's Parameters() order). Within a bucket,
	// parameters appear in expected-gradient-ready order.
	Buckets [][]int
	// BucketOf maps a parameter index to its bucket.
	BucketOf []int
	// OffsetOf maps a parameter index to its element offset within the
	// bucket's flat buffer.
	OffsetOf []int
	// BucketElems is the total element count per bucket.
	BucketElems []int
	// ModelOffsetOf maps a parameter index to its element offset within
	// the model-order vector: every parameter's elements back to back in
	// Parameters() order, the layout of residual and optimizer state
	// that does not depend on the bucket assignment.
	ModelOffsetOf []int
	// ModelElems is the model-order vector's length.
	ModelElems int

	sizes []int
}

// NumBuckets returns the bucket count.
func (a *Assignment) NumBuckets() int { return len(a.Buckets) }

// ToBucket copies bucket b's members from the model-order vector model
// into their places in the bucket's flat buffer.
func (a *Assignment) ToBucket(b int, flat, model []float32) {
	for _, idx := range a.Buckets[b] {
		off, mo := a.OffsetOf[idx], a.ModelOffsetOf[idx]
		copy(flat[off:off+a.sizes[idx]], model[mo:])
	}
}

// ToModel copies bucket b's members from the bucket's flat buffer to
// their places in the model-order vector model, the inverse of
// ToBucket.
func (a *Assignment) ToModel(b int, flat, model []float32) {
	for _, idx := range a.Buckets[b] {
		off, mo := a.OffsetOf[idx], a.ModelOffsetOf[idx]
		copy(model[mo:mo+a.sizes[idx]], flat[off:])
	}
}

// ReverseOrder returns the index sequence n-1, n-2, ..., 0 — the
// default expectation that gradients become ready in the reverse of
// model.parameters() order (Section 3.2.3).
func ReverseOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	return order
}

// AssignBuckets packs parameters into buckets of at most capBytes bytes,
// following `order` (the expected gradient-ready sequence; use
// ReverseOrder for the default). sizes holds each parameter's element
// count in model order; elemBytes is the per-element size (4 for
// float32).
//
// capBytes <= 0 means one bucket per parameter — the "0MB bucket"
// baseline of Figs 7 and 8 where every gradient is communicated on its
// own. A parameter larger than capBytes gets a bucket to itself.
func AssignBuckets(sizes []int, capBytes, elemBytes int, order []int) (*Assignment, error) {
	n := len(sizes)
	if len(order) != n {
		return nil, fmt.Errorf("reduce: order has %d entries for %d parameters", len(order), n)
	}
	seen := make([]bool, n)
	for _, idx := range order {
		if idx < 0 || idx >= n || seen[idx] {
			return nil, fmt.Errorf("reduce: order is not a permutation of parameter indices")
		}
		seen[idx] = true
	}

	a := &Assignment{
		BucketOf:      make([]int, n),
		OffsetOf:      make([]int, n),
		ModelOffsetOf: make([]int, n),
		sizes:         sizes,
	}
	for i, size := range sizes {
		a.ModelOffsetOf[i] = a.ModelElems
		a.ModelElems += size
	}
	var cur []int
	curBytes := 0
	flush := func() {
		if len(cur) == 0 {
			return
		}
		a.Buckets = append(a.Buckets, cur)
		cur = nil
		curBytes = 0
	}
	for _, idx := range order {
		pBytes := sizes[idx] * elemBytes
		if len(cur) > 0 && (capBytes <= 0 || curBytes+pBytes > capBytes) {
			flush()
		}
		cur = append(cur, idx)
		curBytes += pBytes
		if capBytes <= 0 {
			flush()
		}
	}
	flush()

	a.BucketElems = make([]int, len(a.Buckets))
	for b, members := range a.Buckets {
		off := 0
		for _, idx := range members {
			a.BucketOf[idx] = b
			a.OffsetOf[idx] = off
			off += sizes[idx]
		}
		a.BucketElems[b] = off
	}
	return a, nil
}
