// Command ddpbench is the fixture's root program.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/reach_ok/internal/lib"
)

func main() {
	fmt.Println(lib.Pair{A: 1, B: 2}, lib.Total(lib.Square{Side: 2}))
}
