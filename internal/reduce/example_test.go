package reduce_test

import (
	"fmt"

	"repro/internal/reduce"
)

// ExampleAssignBuckets shows the reverse-order bucket packing at the
// heart of Section 4.2.
func ExampleAssignBuckets() {
	// Four parameters of 10 elements (40 bytes) each, 80-byte buckets.
	sizes := []int{10, 10, 10, 10}
	a, err := reduce.AssignBuckets(sizes, 80, 4, reduce.ReverseOrder(len(sizes)))
	if err != nil {
		panic(err)
	}
	fmt.Println("buckets:", a.Buckets)
	// Output: buckets: [[3 2] [1 0]]
}
