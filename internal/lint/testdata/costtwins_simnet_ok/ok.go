// Package simnet walks the step replica.Schedule lists, whatever the
// strategy, and says "re-gather" only in prose.
package simnet

import (
	"repro/internal/reduce"
	"repro/internal/replica"
)

// gathers counts what one step re-gathers: whatever the schedule lists.
func gathers(strategy string, assign *reduce.Assignment, units [][]int) (int, error) {
	step, err := replica.Schedule(strategy, assign, units, 2)
	if err != nil {
		return 0, err
	}
	return step.Buckets(reduce.AllGatherV), nil
}

const ddp = "ddp"

func replicated(strategy string) bool { return strategy == "" || strategy == ddp }
