//go:build race

package transport

// RaceEnabled reports whether the binary was built with the race
// detector. Such a build poisons released frame buffers (see pool.go),
// and the allocation gates in comm and ddp, which the detector's own
// bookkeeping would trip, skip themselves.
const RaceEnabled = true
