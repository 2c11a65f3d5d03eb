//go:build race

package buffer

// RaceEnabled reports whether the binary was built with the race
// detector. Such a build poisons released buffers and panics on a
// buffer handed back twice (see pool.go), and the allocation gates,
// which the detector's own bookkeeping would trip, skip themselves.
const RaceEnabled = true
