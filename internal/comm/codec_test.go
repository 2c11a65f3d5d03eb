package comm

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

// quantized returns what c's wire round trip makes of data, leaving
// data alone: Encode's deq with no frame built.
func quantized(c Codec, data, residual []float32) []float32 {
	deq := make([]float32, len(data))
	c.Encode(nil, data, residual, deq)
	return deq
}

// halfRound is one value through the fp16 codec.
func halfRound(v float32) float32 { return quantized(Float16Codec{}, []float32{v}, nil)[0] }

func TestFloat16ExactValues(t *testing.T) {
	// Values exactly representable in fp16 must survive unchanged.
	for _, v := range []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 65504} {
		if got := halfRound(v); got != v {
			t.Fatalf("fp16(%v) = %v", v, got)
		}
	}
}

func TestFloat16RelativeError(t *testing.T) {
	// fp16 has ~3 decimal digits; relative error must be < 2^-10.
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if v > 65000 || v < -65000 || (v != 0 && math.Abs(float64(v)) < 6.2e-5) {
			return true // outside normal fp16 range
		}
		got := halfRound(v)
		if v == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		return rel <= 1.0/1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat16Overflow(t *testing.T) {
	if got := halfRound(1e20); got != 65504 {
		t.Fatalf("1e20 becomes %v: large values must saturate to the largest finite half", got)
	}
	if got := halfRound(-1e20); got != -65504 {
		t.Fatalf("-1e20 becomes %v: large negatives must saturate to -65504", got)
	}
}

func TestFloat16Subnormals(t *testing.T) {
	// 1e-7 is below the subnormal threshold; must flush to zero.
	if got := halfRound(1e-8); got != 0 {
		t.Fatalf("tiny value = %v, want 0", got)
	}
	// Smallest fp16 subnormal is ~5.96e-8; 1e-5 is subnormal but
	// representable.
	got := halfRound(1e-5)
	if got == 0 || math.Abs(float64(got-1e-5))/1e-5 > 0.05 {
		t.Fatalf("subnormal round-trip = %v", got)
	}
}

func TestFloat16CodecQuantizesInPlace(t *testing.T) {
	c := Float16Codec{}
	if c.Name() != "fp16" || c.CompressionRatio() != 2 {
		t.Fatal("codec metadata wrong")
	}
	data := []float32{0.1, 0.2, 0.3}
	c.Encode(nil, data, nil, data) // deq aliasing data quantizes in place
	for _, v := range data {
		if halfRound(v) != v || v == 0 {
			t.Fatalf("%v is not an fp16 value", v)
		}
	}
}

func TestOneBitCodecSignsAndScale(t *testing.T) {
	c := &OneBitCodec{}
	if c.Name() != "1bit" || c.CompressionRatio() != 32 {
		t.Fatal("codec metadata wrong")
	}
	data := quantized(c, []float32{1, -2, 3, -4}, nil)
	// mean |x| = 2.5; outputs must be ±2.5 matching input signs.
	want := []float32{2.5, -2.5, 2.5, -2.5}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("quantized = %v, want %v", data, want)
		}
	}
}

func TestOneBitCodecErrorFeedbackConverges(t *testing.T) {
	// With error feedback, repeatedly quantizing the same gradient must
	// transmit, on average, the true value: the accumulated transmitted
	// sum converges to n * true gradient.
	c := &OneBitCodec{}
	truth := []float32{0.5, -1.5, 0.25}
	residual := make([]float32, len(truth))
	var sent [3]float64
	const iters = 400
	for it := 0; it < iters; it++ {
		for i, v := range quantized(c, truth, residual) {
			sent[i] += float64(v)
		}
	}
	for i := range truth {
		avg := sent[i] / iters
		if math.Abs(avg-float64(truth[i])) > 0.05 {
			t.Fatalf("element %d average transmitted %v, want %v", i, avg, truth[i])
		}
	}
}

// wireCodecs lists every WireCodec under test.
func wireCodecs() []WireCodec {
	return []WireCodec{Float16Codec{}, &OneBitCodec{}, &TopKCodec{}, &TopKCodec{K: 0.5}}
}

// TestWireCodecRoundTrip: Encode must produce a frame within
// EncodedSize that Decode expands losslessly for values already in the
// codec's representable set, across the awkward shapes (empty, single
// element, non-power-of-two lengths).
func TestWireCodecRoundTrip(t *testing.T) {
	inputs := [][]float32{
		{},
		{1.5},
		{0.5, -0.25, 0, 3, -7},          // non-pow2
		{1, -1, 1, -1, 1, -1, 1, -1, 1}, // 9 elems: partial bitmap byte
		make([]float32, 100),            // all zero
	}
	for i := range inputs[4] {
		inputs[4][i] = float32(i%13) - 6
	}
	for _, c := range wireCodecs() {
		for ti, in := range inputs {
			data := append([]float32(nil), in...)
			frame := c.Encode(nil, data, nil, nil)
			if len(frame) > c.EncodedSize(len(in)) {
				t.Fatalf("%s case %d: frame %d bytes exceeds EncodedSize %d", c.Name(), ti, len(frame), c.EncodedSize(len(in)))
			}
			for j := range in {
				if data[j] != in[j] {
					t.Fatalf("%s case %d: Encode mutated data", c.Name(), ti)
				}
			}
			out := make([]float32, len(in))
			if err := c.Decode(frame, out); err != nil {
				t.Fatalf("%s case %d: decode: %v", c.Name(), ti, err)
			}
			// Decode(Encode(x)) must equal Encode's deq.
			want := quantized(c, in, nil)
			for j := range want {
				if out[j] != want[j] {
					t.Fatalf("%s case %d elem %d: wire %v, deq %v", c.Name(), ti, j, out[j], want[j])
				}
			}
		}
	}
}

// TestWireCodecDecodeRejectsBadFrames: wrong sizes and out-of-range
// indices must error, not corrupt memory.
func TestWireCodecDecodeRejectsBadFrames(t *testing.T) {
	out := make([]float32, 8)
	for _, c := range wireCodecs() {
		if err := c.Decode([]byte{1, 2, 3}, out); err == nil {
			t.Fatalf("%s: truncated frame decoded", c.Name())
		}
	}
	// topk frame with an out-of-range index.
	tk := &TopKCodec{}
	frame := tk.Encode(nil, []float32{1, 2, 3, 4}, nil, nil)
	frame[4] = 0xff // first index -> 255
	if err := tk.Decode(frame, make([]float32, 4)); err == nil {
		t.Fatal("topk: out-of-range index decoded")
	}
}

// TestCodecNonFiniteGuard: Inf/NaN elements must not poison the 1-bit
// scale or any error-feedback residual — they are dropped, counted, and
// the rest of the frame stays usable (the satellite bugfix: before the
// guard, one Inf made the residual NaN forever).
func TestCodecNonFiniteGuard(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	for _, c := range wireCodecs() {
		data := []float32{1, inf, -2, nan, 3}
		residual := make([]float32, len(data))
		before := DroppedNonFinite()
		frame := c.Encode(nil, data, residual, nil)
		if got := DroppedNonFinite() - before; got != 2 {
			t.Fatalf("%s: dropped counter advanced by %d, want 2", c.Name(), got)
		}
		for i, r := range residual {
			if math.IsNaN(float64(r)) || math.IsInf(float64(r), 0) {
				t.Fatalf("%s: residual[%d] = %v is non-finite", c.Name(), i, r)
			}
		}
		out := make([]float32, len(data))
		if err := c.Decode(frame, out); err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		for i, v := range out {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: decoded[%d] = %v is non-finite", c.Name(), i, v)
			}
		}
		// A second encode must keep working with sane values.
		c.Encode(nil, []float32{1, -1}, residual[:2], nil)
		for _, r := range residual[:2] {
			if math.IsNaN(float64(r)) {
				t.Fatalf("%s: residual poisoned after recovery", c.Name())
			}
		}
	}
}

// TestOneBitQuantizeGuards: quantizing an empty slice is a no-op (no
// 0/0 scale), and a non-finite element does not corrupt the residual
// forever.
func TestOneBitQuantizeGuards(t *testing.T) {
	c := &OneBitCodec{}
	c.Encode(nil, nil, nil, nil) // must not panic or divide by zero

	residual := make([]float32, 3)
	for i, v := range quantized(c, []float32{1, float32(math.Inf(1)), -3}, residual) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("quantized[%d] = %v", i, v)
		}
	}
	// The next iteration sees finite values and a finite residual.
	for i, v := range quantized(c, []float32{1, 2, -3}, residual) {
		if math.IsNaN(float64(v)) {
			t.Fatalf("iteration 2 element %d is NaN: residual was poisoned", i)
		}
	}
}

// TestTopKCodecSelection: the largest-magnitude elements survive, the
// rest land in the residual.
func TestTopKCodecSelection(t *testing.T) {
	c := &TopKCodec{K: 0.4} // keep 2 of 5
	data := []float32{0.1, -5, 0.2, 4, -0.3}
	residual := make([]float32, 5)
	frame := c.Encode(nil, data, residual, nil)
	out := make([]float32, 5)
	if err := c.Decode(frame, out); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, -5, 0, 4, 0}
	wantRes := []float32{0.1, 0, 0.2, 0, -0.3}
	for i := range want {
		if out[i] != want[i] || residual[i] != wantRes[i] {
			t.Fatalf("elem %d: out %v (want %v), residual %v (want %v)", i, out[i], want[i], residual[i], wantRes[i])
		}
	}
	// With feedback, the residual rides into the next frame: 0.3 is now
	// the biggest leftover and must be selected once data is quiet.
	quiet := make([]float32, 5)
	frame2 := c.Encode(nil, quiet, residual, nil)
	if err := c.Decode(frame2, out); err != nil {
		t.Fatal(err)
	}
	if out[4] != -0.3 {
		t.Fatalf("carried residual not transmitted: %v", out)
	}
}

// TestErrorFeedbackAccumulates: repeated encodes of the same gradient
// transmit, on average, the true value — the property that makes
// quantized SGD converge (and that dies without residual carry).
func TestErrorFeedbackAccumulates(t *testing.T) {
	for _, c := range []WireCodec{&OneBitCodec{}, &TopKCodec{K: 0.34}} {
		truth := []float32{0.5, -1.5, 0.25}
		residual := make([]float32, len(truth))
		sent := make([]float64, len(truth))
		const iters = 400
		out := make([]float32, len(truth))
		for it := 0; it < iters; it++ {
			frame := c.Encode(nil, truth, residual, nil)
			if err := c.Decode(frame, out); err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				sent[i] += float64(v)
			}
		}
		for i := range truth {
			avg := sent[i] / iters
			if math.Abs(avg-float64(truth[i])) > 0.05 {
				t.Fatalf("%s element %d: average transmitted %v, want %v", c.Name(), i, avg, truth[i])
			}
		}
	}
}

// TestSelectTopKMatchesFullSort pins quickselect's selected SET (and
// its deterministic tie-breaking) against the full-sort reference, over
// shapes with duplicates, ties, zeros, and every k.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	rng := testutil.SeededRand(t)
	cases := [][]float32{
		{1},
		{0, 0, 0, 0},
		{1, -1, 1, -1, 2},
		{5, 4, 3, 2, 1},
		{1, 2, 3, 4, 5},
	}
	for c := 0; c < 20; c++ {
		n := 1 + rng.Intn(64)
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(rng.Intn(7)-3) / 2 // many ties
		}
		cases = append(cases, vals)
	}
	for ci, vals := range cases {
		n := len(vals)
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool { return topKRanks(vals, ref[a], ref[b]) })
		for k := 1; k <= n; k++ {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			selectTopK(idx, vals, k)
			got := append([]int(nil), idx[:k]...)
			want := append([]int(nil), ref[:k]...)
			sort.Ints(got)
			sort.Ints(want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d k=%d: selected %v, want %v (vals %v)", ci, k, got, want, vals)
				}
			}
		}
	}
}

// TestOneBitOverflowingResidualDropped: data+residual overflowing to
// Inf (both operands finite) must be dropped consistently — the scale
// excludes it AND the residual must not retain the huge pre-overflow
// value (the pass-1/pass-2 disagreement found in review).
func TestOneBitOverflowingResidualDropped(t *testing.T) {
	c := &OneBitCodec{}
	data := []float32{3e38, 1, -1}
	residual := []float32{3e38, 0, 0} // 3e38+3e38 overflows float32
	frame := c.Encode(nil, data, residual, nil)
	out := make([]float32, 3)
	if err := c.Decode(frame, out); err != nil {
		t.Fatal(err)
	}
	// Scale must come from the finite elements only: mean(|1|,|-1|)=1.
	if out[1] != 1 || out[2] != -1 {
		t.Fatalf("scale polluted by overflowed element: %v", out)
	}
	// The overflowed element's residual must be small feedback, not 3e38.
	if math.Abs(float64(residual[0])) > 10 {
		t.Fatalf("overflowed element leaked into residual: %v", residual[0])
	}
}

// TestFloat16SaturationKeepsResidualFinite: a finite value beyond fp16
// range must saturate to ±65504 on the wire (not ±Inf, which turns the
// reduced sum Inf) and leave the saturation error in the residual, not
// -Inf.
func TestFloat16SaturationKeepsResidualFinite(t *testing.T) {
	c := Float16Codec{}
	data := []float32{1e5, -1e5, 1}
	residual := make([]float32, 3)
	frame := c.Encode(nil, data, residual, nil)
	out := make([]float32, 3)
	if err := c.Decode(frame, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 65504 || out[1] != -65504 {
		t.Fatalf("out-of-range values must saturate finite: %v", out)
	}
	if residual[0] != 1e5-65504 || residual[1] != -(1e5-65504) {
		t.Fatalf("saturation error must be carried in the residual: %v", residual)
	}
	// Without error feedback the wire stays finite too.
	frame = c.Encode(nil, []float32{1e6}, nil, nil)
	if err := c.Decode(frame, out[:1]); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(float64(out[0]), 0) {
		t.Fatal("wire value must not be Inf")
	}
}
