package replica

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/reduce"
)

// Budget is the one place a sharded preset becomes a memory budget: it
// returns the function of the layout that gives the elements the step's
// plan (reduce.PlanStep) may hold gathered, for units whose parameters
// touch unitBuckets[u] over buckets of size[b] elements. "zero2" holds
// the whole model, so each bucket is gathered once a step; "zero3"
// holds reduce.PrefetchBudget. Any other name is an error that names it.
func Budget(strategy string) (func(unitBuckets [][]int, size []int) int, error) {
	switch strategy {
	case "zero2":
		return func(_ [][]int, size []int) (total int) {
			for _, n := range size {
				total += n
			}
			return total
		}, nil
	case "zero3":
		return reduce.PrefetchBudget, nil
	default:
		return nil, fmt.Errorf("unknown sharded strategy %q (want zero2 or zero3)", strategy)
	}
}

// Units decomposes module into the forward units a sharded step gathers
// and frees by — a Sequential's children, or else the module itself —
// and counts each unit's parameters, which reduce.UnitBuckets maps to
// buckets: Parameters of a Sequential concatenates its children's.
func Units(module nn.Module) (units []nn.Module, counts []int) {
	units = []nn.Module{module}
	if seq, ok := module.(*nn.Sequential); ok {
		units = seq.Children()
	}
	for _, unit := range units {
		counts = append(counts, len(unit.Parameters()))
	}
	return units, counts
}

// Schedule returns the collectives one synchronized step of strategy
// submits at world w over the layout assign, for units whose parameters
// touch units[u] (Units): "ddp" (or "") for the replicated step, else a
// sharded preset's, planned within its Budget for an unmeasured link
// (reduce.Link's zero value). It returns the step's Check error, if
// any, beside it.
func Schedule(strategy string, assign *reduce.Assignment, units [][]int, w int) (reduce.Step, error) {
	var plan *reduce.Plan
	if strategy != "" && strategy != "ddp" {
		budget, err := Budget(strategy)
		if err != nil {
			return nil, fmt.Errorf("unknown strategy %q (want ddp, zero2 or zero3)", strategy)
		}
		p := reduce.PlanStep(units, assign.BucketElems, budget(units, assign.BucketElems), w, reduce.Link{}, nil)
		plan = &p
	}
	step := reduce.Schedule(assign, units, plan)
	return step, step.Check(units)
}
