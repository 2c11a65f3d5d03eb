// Package chaos is clean under oneconstructor: it builds through
// strategy.Build and reaches a strategy's own capabilities by type
// assertion; a function of its own called New is not fsdp's.
package chaos

import (
	"repro/internal/comm"
	"repro/internal/fsdp"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/strategy"
)

// New is this package's own.
func New() int { return 1 }

func build(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
	r, err := strategy.Build(m, pg, strategy.Spec{Strategy: fsdp.ZeRO3.String(), LR: 0.1})
	if err != nil {
		return nil, err
	}
	if f, ok := r.(*fsdp.FSDP); ok {
		_ = f.Stats().OptimizerBytes + New()
	}
	return r, nil
}
