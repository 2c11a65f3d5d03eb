// Package strategy turns a run's data-parallel configuration, one Spec
// value, into a replica.Replica. Build is the only code in module repro
// that names ddp.NewReplica or fsdp.New, the only code that maps a
// strategy name to a constructor and a codec name to a codec, and
// Check the one place either name is accepted or refused; ddplint's
// oneconstructor analyzer holds the first of these in tier-1. It sits
// above ddp and fsdp because replica cannot import them: both embed
// replica.Core.
package strategy

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/nn"
	"repro/internal/replica"
)

// momentum is the momentum-SGD coefficient of every replica Build
// returns.
const momentum = 0.9

// Spec is one rank's choice of data-parallel replica.
type Spec struct {
	// Strategy is "" or "ddp" for replicated DDP, or the sharded preset
	// "zero2" or "zero3" (replica.Budget); each applies momentum SGD at
	// the end of a synchronized Backward.
	Strategy string
	// BucketCapBytes bounds each gradient bucket as
	// ddp.Options.BucketCapBytes does: zero selects the default,
	// negative one bucket per parameter.
	BucketCapBytes int
	// Codec names the wire codec: "" for none, "fp16", "1bit" or "topk".
	Codec string
	// LR is the optimizer's learning rate.
	LR float32
	// Aligned reports that the caller already made the model's tensors
	// identical on every rank (the elastic agent does), so the
	// constructor's rank-0 broadcast is skipped.
	Aligned bool
}

// sharded maps each sharded preset to fsdp's, and codecs each codec
// name to its factory.
var (
	sharded = map[string]fsdp.Strategy{"zero2": fsdp.ZeRO2, "zero3": fsdp.ZeRO3}
	codecs  = map[string]func() comm.Codec{
		"":     nil,
		"fp16": func() comm.Codec { return comm.Float16Codec{} },
		"1bit": func() comm.Codec { return &comm.OneBitCodec{} },
		"topk": func() comm.Codec { return &comm.TopKCodec{} },
	}
)

// Check refuses a spec whose strategy or codec Build does not know, by
// value.
func (s Spec) Check() error {
	if _, ok := sharded[s.Strategy]; !ok && s.Strategy != "" && s.Strategy != "ddp" {
		return fmt.Errorf("unknown strategy %q (want ddp, zero2 or zero3)", s.Strategy)
	}
	if _, ok := codecs[s.Codec]; !ok {
		return fmt.Errorf("unknown compression codec %q (want fp16, 1bit or topk)", s.Codec)
	}
	return nil
}

// Build wraps module for data-parallel training over group as spec
// says. A refused spec, or a constructor's error, returns a nil
// Replica.
func Build(module nn.Module, group comm.ProcessGroup, spec Spec) (replica.Replica, error) {
	if err := spec.Check(); err != nil {
		return nil, err
	}
	var r replica.Replica
	var err error
	if st, ok := sharded[spec.Strategy]; ok {
		r, err = fsdp.New(module, group, fsdp.Options{
			Strategy: st, BucketCapBytes: spec.BucketCapBytes, LR: spec.LR, Momentum: momentum,
			NewCodec: codecs[spec.Codec], SkipInitialBroadcast: spec.Aligned,
		})
	} else {
		r, err = ddp.NewReplica(module, group, ddp.Options{
			BucketCapBytes: spec.BucketCapBytes, NewCodec: codecs[spec.Codec], SkipInitialBroadcast: spec.Aligned,
		}, spec.LR, momentum)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
