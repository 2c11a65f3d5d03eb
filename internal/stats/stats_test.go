package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 || s.N != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Fatalf("quartiles = %v, %v", s.P25, s.P75)
	}
}

func TestSummarizeInterpolatesQuantiles(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if s.Median != 5 || s.P25 != 2.5 || s.P75 != 7.5 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeP99SmallN(t *testing.T) {
	// N = 1: every quantile is the sample.
	if s := Summarize([]float64{7}); s.P99 != 7 {
		t.Fatalf("singleton P99 = %v", s.P99)
	}
	// N = 2: pos = 0.99 → 0.01·x[0] + 0.99·x[1].
	if s := Summarize([]float64{0, 100}); math.Abs(s.P99-99) > 1e-12 {
		t.Fatalf("two-sample P99 = %v, want 99", s.P99)
	}
	// N = 5: pos = 0.99·4 = 3.96 → between x[3] and x[4].
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if math.Abs(s.P99-4.96) > 1e-12 {
		t.Fatalf("five-sample P99 = %v, want 4.96", s.P99)
	}
	if s.P99 > s.Max || s.P99 < s.P75 {
		t.Fatalf("P99 = %v outside [P75=%v, Max=%v]", s.P99, s.P75, s.Max)
	}
	// N = 101 of 0..100: pos = 0.99·100 = 99 exactly.
	big := make([]float64, 101)
	for i := range big {
		big[i] = float64(i)
	}
	if s := Summarize(big); s.P99 != 99 {
		t.Fatalf("P99 of 0..100 = %v, want 99", s.P99)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary should be zero")
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestButterworthRejectsBadArgs(t *testing.T) {
	if _, _, err := Butterworth(0, 0.5); err == nil {
		t.Fatal("order 0 must error")
	}
	if _, _, err := Butterworth(3, 0); err == nil {
		t.Fatal("cutoff 0 must error")
	}
	if _, _, err := Butterworth(3, 1); err == nil {
		t.Fatal("cutoff 1 must error")
	}
}

func TestButterworthDCGainIsOne(t *testing.T) {
	for _, order := range []int{1, 2, 3, 4} {
		for _, wn := range []float64{0.05, 0.3, 0.8} {
			b, a, err := Butterworth(order, wn)
			if err != nil {
				t.Fatal(err)
			}
			if a[0] != 1 {
				t.Fatalf("a[0] = %v, want 1", a[0])
			}
			var sb, sa float64
			for i := range b {
				sb += b[i]
				sa += a[i]
			}
			if math.Abs(sb/sa-1) > 1e-9 {
				t.Fatalf("order %d wn %v: DC gain = %v", order, wn, sb/sa)
			}
		}
	}
}

func TestButterworthMatchesSciPyOrder3(t *testing.T) {
	// scipy.signal.butter(3, 0.5) reference coefficients.
	b, a, err := Butterworth(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wantB := []float64{0.16666667, 0.5, 0.5, 0.16666667}
	wantA := []float64{1.0, -9.98400574e-17, 3.33333333e-01, -1.89805700e-17}
	for i := range wantB {
		if math.Abs(b[i]-wantB[i]) > 1e-6 {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], wantB[i])
		}
		if math.Abs(a[i]-wantA[i]) > 1e-6 {
			t.Fatalf("a[%d] = %v, want %v", i, a[i], wantA[i])
		}
	}
}

func TestLowPassAttenuatesHighFrequency(t *testing.T) {
	b, a, err := Butterworth(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Input: DC level 1 plus fast alternation; output should keep DC and
	// kill the alternation.
	n := 200
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + 0.5*math.Pow(-1, float64(i))
	}
	y := FiltFilt(b, a, x)
	for i := 50; i < 150; i++ {
		if math.Abs(y[i]-1) > 0.05 {
			t.Fatalf("y[%d] = %v, want ~1", i, y[i])
		}
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	// A symmetric pulse must stay symmetric (no phase shift).
	b, a, _ := Butterworth(3, 0.2)
	n := 101
	x := make([]float64, n)
	x[50] = 1
	y := FiltFilt(b, a, x)
	peak := 0
	for i := range y {
		if y[i] > y[peak] {
			peak = i
		}
	}
	if peak != 50 {
		t.Fatalf("peak moved to %d (phase distortion)", peak)
	}
	for off := 1; off < 20; off++ {
		if math.Abs(y[50-off]-y[50+off]) > 1e-9 {
			t.Fatalf("asymmetric response at ±%d: %v vs %v", off, y[50-off], y[50+off])
		}
	}
}

func TestFiltFiltPreservesLength(t *testing.T) {
	b, a, _ := Butterworth(3, 0.05)
	for _, n := range []int{1, 5, 30, 500} {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		if got := len(FiltFilt(b, a, x)); got != n {
			t.Fatalf("length %d -> %d", n, got)
		}
	}
}

func TestSmoothLossesReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 400
	x := make([]float64, n)
	for i := range x {
		x[i] = 2.0 - float64(i)/300 + 0.3*rng.NormFloat64() // noisy decay
	}
	y := SmoothLosses(x)
	if len(y) != n {
		t.Fatalf("length changed: %d", len(y))
	}
	varOf := func(v []float64, trendOf []float64) float64 {
		var s float64
		for i := range v {
			d := v[i] - (2.0 - float64(i)/300)
			s += d * d
		}
		return s / float64(len(v))
	}
	if varOf(y, nil) > varOf(x, nil)/4 {
		t.Fatalf("smoothing too weak: %v vs %v", varOf(y, nil), varOf(x, nil))
	}
	// Short inputs pass through unchanged.
	short := []float64{1, 2, 3}
	got := SmoothLosses(short)
	if len(got) != 3 || got[0] != 1 {
		t.Fatal("short input must pass through")
	}
}
