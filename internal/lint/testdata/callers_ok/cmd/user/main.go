// Command user is the fixture's one program.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/callers_ok/internal/lib"
)

func main() {
	fmt.Println(lib.Pair{1, 2})
}
