package reduce

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReverseOrder(t *testing.T) {
	got := ReverseOrder(4)
	want := []int{3, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReverseOrder = %v", got)
		}
	}
}

func TestAssignBucketsReverseDefault(t *testing.T) {
	// 4 params of 10 elements (40 bytes each), cap 80 bytes -> 2 per
	// bucket, reverse order: bucket0 = {3,2}, bucket1 = {1,0}.
	sizes := []int{10, 10, 10, 10}
	a, err := AssignBuckets(sizes, 80, 4, ReverseOrder(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBuckets() != 2 {
		t.Fatalf("buckets = %d, want 2", a.NumBuckets())
	}
	if a.Buckets[0][0] != 3 || a.Buckets[0][1] != 2 || a.Buckets[1][0] != 1 || a.Buckets[1][1] != 0 {
		t.Fatalf("bucket contents %v", a.Buckets)
	}
	if a.BucketOf[3] != 0 || a.BucketOf[0] != 1 {
		t.Fatalf("BucketOf %v", a.BucketOf)
	}
	if a.OffsetOf[3] != 0 || a.OffsetOf[2] != 10 {
		t.Fatalf("OffsetOf %v", a.OffsetOf)
	}
	if a.BucketElems[0] != 20 {
		t.Fatalf("BucketElems %v", a.BucketElems)
	}
}

func TestAssignBucketsZeroCapOnePerParam(t *testing.T) {
	a, err := AssignBuckets([]int{5, 6, 7}, -1, 4, ReverseOrder(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBuckets() != 3 {
		t.Fatalf("buckets = %d, want 3 (one per parameter)", a.NumBuckets())
	}
}

func TestAssignBucketsOversizedParamGetsOwnBucket(t *testing.T) {
	// Middle param is bigger than the cap; it must not merge with others.
	a, err := AssignBuckets([]int{2, 1000, 2}, 64, 4, ReverseOrder(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, members := range a.Buckets {
		for _, idx := range members {
			if idx == 1 && len(members) != 1 {
				t.Fatalf("oversized param shares bucket: %v", a.Buckets)
			}
		}
	}
}

func TestAssignBucketsCustomOrder(t *testing.T) {
	// A rebuild passes a traced order; packing must follow it.
	a, err := AssignBuckets([]int{1, 1, 1}, 8, 4, []int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBuckets() != 2 || a.Buckets[0][0] != 1 || a.Buckets[0][1] != 0 || a.Buckets[1][0] != 2 {
		t.Fatalf("buckets %v", a.Buckets)
	}
}

func TestAssignBucketsRejectsBadOrder(t *testing.T) {
	if _, err := AssignBuckets([]int{1, 2}, 8, 4, []int{0, 0}); err == nil {
		t.Fatal("duplicate order entries must error")
	}
	if _, err := AssignBuckets([]int{1, 2}, 8, 4, []int{0}); err == nil {
		t.Fatal("short order must error")
	}
	if _, err := AssignBuckets([]int{1, 2}, 8, 4, []int{0, 5}); err == nil {
		t.Fatal("out-of-range order must error")
	}
}

// Property: every parameter lands in exactly one bucket, offsets tile the
// bucket exactly, and no bucket except singletons exceeds the cap.
func TestAssignBucketsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(2000)
		}
		capBytes := []int{-1, 256, 1024, 1 << 20}[rng.Intn(4)]
		a, err := AssignBuckets(sizes, capBytes, 4, ReverseOrder(n))
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for b, members := range a.Buckets {
			total := 0
			for _, idx := range members {
				if seen[idx] || a.BucketOf[idx] != b {
					return false
				}
				seen[idx] = true
				if a.OffsetOf[idx] != total {
					return false
				}
				total += sizes[idx]
			}
			if total != a.BucketElems[b] {
				return false
			}
			if capBytes > 0 && len(members) > 1 && total*4 > capBytes {
				return false
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
