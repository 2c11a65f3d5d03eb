// Command ddpbench is the fixture's root program.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/reach_bad/internal/lib"
)

func main() {
	lib.Used()
	lib.Kept()
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Summary{N: 3}.N, lib.Named{})
	// lib.CommentOnly() would be a caller; this comment is not.
}
