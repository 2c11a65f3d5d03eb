package reduce

import (
	"slices"
	"strings"
	"testing"
)

// TestCheckRefusesInvalidSteps feeds Step.Check one invalid step of each
// kind it refuses, each the benchmark layout's valid zero3 step with one
// collective moved, and requires an error naming that collective and
// the point at fault; the step itself passes, and so does the step
// whose u0 gather also carries bucket 1, which u0 does not read but u1
// reads next (a launch group joined by the link).
func TestCheckRefusesInvalidSteps(t *testing.T) {
	units := [][]int{{3, 2}, {2, 1}, {1, 0}, {0}, {0}}
	size := []int{198656, 198272, 198272, 198144}
	plan := PlanStep(units, size, PrefetchBudget(units, size), 2, Link{}, nil)
	step := Schedule(&Assignment{Buckets: make([][]int, len(size)), BucketElems: size}, units, &plan)
	if err := step.Check(units); err != nil {
		t.Fatalf("the planned step fails its check: %v", err)
	}
	joined := PlanStep(units, size, PrefetchBudget(units, size), 2, Link{Alpha: 1}, nil)
	if err := Schedule(&Assignment{Buckets: make([][]int, len(size)), BucketElems: size}, units, &joined).Check(units); err != nil || joined.Gathers[0].Buckets[2] != 1 {
		t.Fatalf("the joined plan %v fails its check: %v", joined.Gathers, err)
	}
	// find returns the index of the collective of kind k whose first
	// bucket is b and that is submitted at point at.
	find := func(k Kind, b, at int) int {
		i := slices.IndexFunc(step, func(c Collective) bool { return c.Kind == k && c.Buckets[0] == b && c.Submit == at })
		if i < 0 {
			t.Fatalf("the step %v has no %v of bucket %d at point %d", step, k, b, at)
		}
		return i
	}
	for _, tc := range []struct {
		name  string
		at    int
		set   func(c *Collective)
		wants string
	}{
		{"waited for before it is submitted", find(AllGatherV, 1, 0), func(c *Collective) { c.Submit = 2 },
			"AllGatherV of buckets [1] submitted at point 2 and waited for at 1: the wait comes first"},
		{"waited for at a point that reads none of its buckets", find(AllGatherV, 0, 1), func(c *Collective) { c.Wait = 1 },
			"AllGatherV of buckets [0] submitted at point 1 and waited for at 1: that point reads none of its buckets"},
		{"read while in flight", find(AllGatherV, 3, 8), func(c *Collective) { c.Submit = 0 },
			"AllGatherV of buckets [3] submitted at point 0 and waited for at 9: point 0 still reads bucket 3"},
		{"a joined bucket read before the wait", find(AllGatherV, 1, 0), func(c *Collective) { c.Buckets = []int{1, 2} },
			"AllGatherV of buckets [1 2] submitted at point 0 and waited for at 1: point 0 still reads bucket 2"},
		{"a bucket no point reads once it lands", find(AllGatherV, 3, 8), func(c *Collective) { c.Buckets = []int{3, 0} },
			"AllGatherV of buckets [3 0] submitted at point 8 and waited for at 9: no point from there reads bucket 0"},
		{"reduced before its last gradient lands", find(ReduceScatterV, 0, 8), func(c *Collective) { c.Submit = 7 },
			"ReduceScatterV of buckets [0] submitted at point 7 and waited for at 10: point 7 still reads bucket 0"},
		{"waited for after its update", find(ReduceScatterV, 0, 8), func(c *Collective) { c.Wait = 11 },
			"ReduceScatterV of buckets [0] submitted at point 8 and waited for at 11: after bucket 0's update at point 10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(step)
			tc.set(&bad[tc.at])
			err := bad.Check(units)
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Fatalf("Check returned %v, want an error saying %q", err, tc.wants)
			}
		})
	}
}
