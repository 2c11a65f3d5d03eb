// Package chaos seeds oneconstructor violations: a replica built, or
// its constructor kept for later, outside internal/strategy.
package chaos

import (
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/nn"
	"repro/internal/replica"
)

// A direct call, the way a harness's own switch built one.
func sharded(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
	return fsdp.New(m, pg, fsdp.Options{Strategy: fsdp.ZeRO3}) //lint:want oneconstructor
}

// The constructor taken as a value and called later.
func later() func(nn.Module, comm.ProcessGroup, fsdp.Options) (*fsdp.FSDP, error) {
	newF := fsdp.New //lint:want oneconstructor
	return newF
}

// The replicated constructor, as a package-level value.
var newDDP = ddp.NewReplica //lint:want oneconstructor

func replicated(m nn.Module, pg comm.ProcessGroup) (*ddp.Replica, error) {
	return newDDP(m, pg, ddp.Options{}, 0.1, 0.9)
}
