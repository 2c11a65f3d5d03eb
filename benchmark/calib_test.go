package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestSpeedCorrection pins what the correction does: a time measured at
// reference speed is left alone, a fully busy one scales with the
// kernel, a waiting one does not move, and in between only the busy
// share scales.
func TestSpeedCorrection(t *testing.T) {
	const refMS = calibRefNS * msPerNS
	for _, tc := range []struct {
		name           string
		busy, kernelMS float64
		raw, want      float64
	}{
		{"at reference speed", 1, refMS, 40, 40},
		{"busy, machine 25% slow", 1, 1.25 * refMS, 50, 40},
		{"busy, machine 20% fast", 1, 0.8 * refMS, 32, 40},
		{"all waiting", 0, 2 * refMS, 50, 50},
		{"half busy, machine 2x slow", 0.5, 2 * refMS, 60, 45},
	} {
		s := speed{busy: tc.busy, kernelMS: []float64{tc.kernelMS}}
		if got := s.correct([]float64{tc.raw})[0]; !near(got, tc.want) {
			t.Errorf("%s: %v ms corrected to %v, want %v", tc.name, tc.raw, got, tc.want)
		}
	}
}

// TestBusyShare checks that the calibration runs are taken out of both
// the CPU and the wall time, and that the share stays within [0,1].
func TestBusyShare(t *testing.T) {
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	// 100 ms of wall time of which 10 went to the kernel on both ranks;
	// of the 90 left, each of the two cores was busy for 45.
	s := newSpeed(ms(100), ms(2*45+2*10), int64(ms(2*10)), int64(ms(10)), nil)
	if !near(s.busy, 0.5) {
		t.Errorf("busy share %v, want 0.5", s.busy)
	}
	if s := newSpeed(ms(10), ms(100), 0, 0, nil); s.busy != 1 {
		t.Errorf("busy share %v above 1 was not clamped", s.busy)
	}
	if s := newSpeed(ms(10), 0, int64(ms(1)), 0, nil); s.busy != 0 {
		t.Errorf("busy share %v below 0 was not clamped", s.busy)
	}
}

func TestCalibratorRuns(t *testing.T) {
	k := newCalibrator()
	if ns := k.run(); ns <= 0 {
		t.Fatalf("kernel took %d ns", ns)
	}
	// Row 1 of a times column 1 of b: the kernel computes a product, and
	// starts from zero on every run.
	var want float32
	for p := 0; p < calibN; p++ {
		want += k.a[calibN+p] * k.b[p*calibN+1]
	}
	k.run()
	if got := k.c[calibN+1]; got != want {
		t.Errorf("c[1][1] = %v after two runs, want %v", got, want)
	}
}

func TestBlockThroughput(t *testing.T) {
	// Three blocks at 10 ms a step and one disturbed block at 30: the
	// median over blocks ignores the disturbed one.
	steps := make([]float64, 4*throughputBlock+3) // the ragged tail is dropped
	for i := range steps {
		steps[i] = 10
	}
	for i := throughputBlock; i < 2*throughputBlock; i++ {
		steps[i] = 30
	}
	if got, want := blockThroughput(steps, 8), 800.0; !near(got, want) {
		t.Errorf("throughput %v samples/s, want %v", got, want)
	}
}
