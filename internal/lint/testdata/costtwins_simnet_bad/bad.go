// Package simnet seeds costtwins violations in a simulator: presets
// spelled out, a re-gather of its own, and package fsdp.
package simnet

import "repro/internal/fsdp" //lint:want costtwins

func gathers(strategy string) int {
	if strategy == "zero3" { //lint:want costtwins
		return 2
	}
	return 1
}

func regatherSeconds() float64 { return 0 } //lint:want costtwins

/* ZeRO-3 pays a regather here. */ //lint:want costtwins

// The preset spelled in two pieces: no "zero[23]" literal is in the
// source.
const stage = "zero"

func sharded(strategy string) bool {
	return strategy == stage+"2" //lint:want costtwins
}

var _ = fsdp.ZeRO3 //lint:want costtwins
