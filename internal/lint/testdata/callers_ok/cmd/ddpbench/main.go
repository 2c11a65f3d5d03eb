// Command ddpbench is the fixture's root program.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/callers_ok/internal/lib"
)

func main() {
	fmt.Println(lib.Pair{1, 2})
}
