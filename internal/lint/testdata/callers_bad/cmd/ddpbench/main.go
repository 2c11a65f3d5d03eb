// Command ddpbench is the fixture's root program.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/callers_bad/internal/comm"
	l "repro/internal/lint/testdata/callers_bad/internal/lib"
)

func main() {
	l.Run()
	comm.Exported()
	_ = l.Opts{Set: 1}
	fmt.Println(l.Knob{}.Level)
}
