// Command user is the fixture's one program.
package main

import (
	"repro/internal/lint/testdata/callers_bad/internal/comm"
	l "repro/internal/lint/testdata/callers_bad/internal/lib"
)

func main() {
	l.Used()
	l.Kept()
	l.Run()
	comm.Exported()
	_ = l.Opts{Set: 1}
	var n l.Named
	_ = n
	// l.CommentOnly() would be a caller; this comment is not.
}
