// Command user is the fixture's one program.
package main

import (
	"repro/internal/lint/testdata/callers_bad/internal/comm"
	l "repro/internal/lint/testdata/callers_bad/internal/lib"
)

func main() {
	l.Run()
	comm.Exported()
	_ = l.Opts{Set: 1}
}
