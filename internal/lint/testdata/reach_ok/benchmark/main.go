// Command benchmark stands for the frozen benchmark: what its files name
// is kept.
package main

import "repro/internal/lint/testdata/reach_ok/internal/lib"

func main() { lib.ForBenchmark() }
