package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/transport"
)

// The oracle: the scalar binary16 converters and the per-element
// Encode/Decode bodies this package shipped before its kernels went
// bulk, kept verbatim — call chain, counter bumps and all, so that
// BenchmarkCodecKernels' baseline costs what the old code cost — as the
// definition of every bit the codecs produce. Frames, residuals and
// therefore training trajectories are pinned to these functions.

// refFloat32ToFloat16 converts to binary16 representation bits.
func refFloat32ToFloat16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff

	switch {
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// Subnormal: shift mantissa (with implicit leading 1).
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := (mant + half) >> shift
		return sign | uint16(rounded)
	case exp >= 0x1f:
		if exp == 128-127+15 && mant != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf / overflow
	default:
		// Round mantissa from 23 to 10 bits, to nearest even.
		rounded := mant + 0xfff + ((mant >> 13) & 1)
		if rounded&0x800000 != 0 {
			rounded = 0
			exp++
			if exp >= 0x1f {
				return sign | 0x7c00
			}
		}
		return sign | uint16(exp)<<10 | uint16(rounded>>13)
	}
}

// refFloat16ToFloat32 expands binary16 bits to float32.
func refFloat16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// refEFValue returns the value to quantize for element i — data[i] plus
// its residual under error feedback — and whether it is finite. A
// non-finite value is dropped: the caller transmits 0, the residual is
// zeroed, and the process-wide counter is bumped.
func refEFValue(data, residual []float32, i int) (float32, bool) {
	v := data[i]
	if residual != nil {
		v += residual[i]
	}
	if f64 := float64(v); math.IsNaN(f64) || math.IsInf(f64, 0) {
		if residual != nil {
			residual[i] = 0
		}
		nonFiniteDropped.Add(1)
		mDroppedNonFinite.Inc()
		return 0, false
	}
	return v, true
}

func refSetResidual(residual []float32, i int, v, q float32) {
	if residual != nil {
		residual[i] = v - q
	}
}

// refCodec is one codec's oracle: encode appends the frame for (data,
// residual), updating residual in place and the drop counter; decode
// expands a frame.
type refCodec struct {
	codec  WireCodec
	encode func(dst []byte, data, residual []float32) []byte
	decode func(buf []byte, out []float32) error
}

// dropsDuring reports how far the process-wide drop counter advanced
// while fn ran.
func dropsDuring(fn func()) int {
	before := DroppedNonFinite()
	fn()
	return int(DroppedNonFinite() - before)
}

func refCodecs() []refCodec {
	topk, half := &TopKCodec{}, &TopKCodec{K: 0.5}
	return []refCodec{
		{Float16Codec{}, refHalfEncode, refHalfDecode},
		{&OneBitCodec{}, refOneBitEncode, refOneBitDecode},
		{topk, refTopKEncode(topk), refTopKDecode},
		{half, refTopKEncode(half), refTopKDecode},
	}
}

func refHalfEncode(dst []byte, data, residual []float32) []byte {
	for i := range data {
		v, ok := refEFValue(data, residual, i)
		var h uint16
		if ok {
			q := v
			switch {
			case q > 65504:
				q = 65504
			case q < -65504:
				q = -65504
			}
			h = refFloat32ToFloat16(q)
			refSetResidual(residual, i, v, refFloat16ToFloat32(h))
		}
		dst = binary.LittleEndian.AppendUint16(dst, h)
	}
	return dst
}

func refHalfDecode(buf []byte, out []float32) error {
	if len(buf) != 2*len(out) {
		return fmt.Errorf("fp16 frame is %d bytes for %d elements", len(buf), len(out))
	}
	for i := range out {
		out[i] = refFloat16ToFloat32(binary.LittleEndian.Uint16(buf[2*i:]))
	}
	return nil
}

func refOneBitEncode(dst []byte, data, residual []float32) []byte {
	n := len(data)
	if n == 0 {
		return dst
	}
	start := len(dst)
	dst = append(dst, make([]byte, 4+(n+7)/8)...)
	vals := make([]float32, n)
	var meanAbs float64
	finite := 0
	for i := 0; i < n; i++ {
		v, ok := refEFValue(data, residual, i)
		vals[i] = v // 0 when dropped
		if ok {
			meanAbs += math.Abs(float64(v))
			finite++
		}
	}
	var scale float32
	if finite > 0 {
		scale = float32(meanAbs / float64(finite))
	}
	binary.LittleEndian.PutUint32(dst[start:], math.Float32bits(scale))
	bitmap := dst[start+4:]
	for i, v := range vals {
		q := scale
		if v < 0 {
			q = -scale
			bitmap[i/8] |= 1 << (i % 8)
		}
		refSetResidual(residual, i, v, q)
	}
	return dst
}

func refOneBitDecode(buf []byte, out []float32) error {
	n := len(out)
	if len(buf) != (&OneBitCodec{}).EncodedSize(n) {
		return fmt.Errorf("1bit frame is %d bytes for %d elements", len(buf), n)
	}
	if n == 0 {
		return nil
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(buf))
	bitmap := buf[4:]
	for i := range out {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			out[i] = -scale
		} else {
			out[i] = scale
		}
	}
	return nil
}

func refTopKEncode(c *TopKCodec) func(dst []byte, data, residual []float32) []byte {
	return func(dst []byte, data, residual []float32) []byte {
		n := len(data)
		if n == 0 {
			return dst
		}
		vals := make([]float32, n)
		for i := range data {
			vals[i], _ = refEFValue(data, residual, i)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		k := c.kept(n)
		selectTopK(idx, vals, k)
		sel := idx[:k]
		sort.Ints(sel)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
		for _, i := range sel {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		}
		for _, i := range sel {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(vals[i]))
		}
		if residual != nil {
			s := 0
			for i := range vals {
				if s < len(sel) && sel[s] == i {
					residual[i] = 0
					s++
				} else {
					residual[i] = vals[i]
				}
			}
		}
		return dst
	}
}

func refTopKDecode(buf []byte, out []float32) error {
	n := len(out)
	if n == 0 {
		if len(buf) != 0 {
			return fmt.Errorf("topk frame is %d bytes for 0 elements", len(buf))
		}
		return nil
	}
	if len(buf) < 4 {
		return fmt.Errorf("topk frame truncated (%d bytes)", len(buf))
	}
	k := int(binary.LittleEndian.Uint32(buf))
	if k < 0 || k > n || len(buf) != 4+8*k {
		return fmt.Errorf("topk frame claims %d pairs in %d bytes for %d elements", k, len(buf), n)
	}
	for i := range out {
		out[i] = 0
	}
	idxs := buf[4:]
	valBase := 4 + 4*k
	for j := 0; j < k; j++ {
		i := int(binary.LittleEndian.Uint32(idxs[4*j:]))
		if i >= n {
			return fmt.Errorf("topk index %d out of range [0,%d)", i, n)
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[valBase+4*j:]))
	}
	return nil
}

// sameBits reports the first index at which two float32 slices differ
// in their bit patterns (so -0 != +0, and a NaN equals itself), or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkEncode runs codec.Encode on (data, residual) every way a caller
// can — deq absent, separate, and data itself; frame wanted or not —
// and holds each against the oracle: frame bytes, new residual, deq
// (= what the oracle decodes from the frame) and the drop count.
func checkEncode(t testing.TB, rc refCodec, data, residual []float32) {
	t.Helper()
	name := rc.codec.Name()
	wantRes := slices.Clone(residual)
	var wantFrame []byte
	wantDropped := dropsDuring(func() { wantFrame = rc.encode([]byte{0xAA}, data, wantRes) })
	wantDeq := make([]float32, len(data))
	if err := rc.decode(wantFrame[1:], wantDeq); err != nil {
		t.Fatalf("%s: oracle cannot decode its own frame: %v", name, err)
	}
	for _, mode := range []string{"frame", "frame+deq", "frame+inplace", "deq", "inplace"} {
		in, res := slices.Clone(data), slices.Clone(residual)
		var dst []byte
		var deq []float32
		switch mode {
		case "frame":
			dst = []byte{0xAA}
		case "frame+deq":
			dst, deq = []byte{0xAA}, make([]float32, len(data))
		case "frame+inplace":
			dst, deq = []byte{0xAA}, in
		case "deq":
			deq = make([]float32, len(data))
		case "inplace":
			deq = in
		}
		var frame []byte
		if got := dropsDuring(func() { frame = rc.codec.Encode(dst, in, res, deq) }); got != wantDropped {
			t.Fatalf("%s/%s: dropped %d elements, oracle %d", name, mode, got, wantDropped)
		}
		if dst == nil {
			if frame != nil {
				t.Fatalf("%s/%s: built a %d-byte frame nobody asked for", name, mode, len(frame))
			}
		} else if !bytes.Equal(frame, wantFrame) {
			t.Fatalf("%s/%s: frame differs from the oracle's\n got %x\nwant %x\ndata %v residual %v", name, mode, frame, wantFrame, data, residual)
		}
		if i := sameBits(res, wantRes); i >= 0 {
			t.Fatalf("%s/%s: residual[%d] = %v, oracle %v (data %v, residual in %v)", name, mode, i, res[i], wantRes[i], data[i], residual[i])
		}
		if deq != nil {
			if i := sameBits(deq, wantDeq); i >= 0 {
				t.Fatalf("%s/%s: deq[%d] = %v, the frame decodes to %v (data %v)", name, mode, i, deq[i], wantDeq[i], data[i])
			}
		} else if i := sameBits(in, data); i >= 0 {
			t.Fatalf("%s/%s: Encode modified data[%d]", name, mode, i)
		}
	}
	// The new Decode reads the frame the way the oracle does.
	got := make([]float32, len(data))
	if err := rc.codec.Decode(wantFrame[1:], got); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if i := sameBits(got, wantDeq); i >= 0 {
		t.Fatalf("%s: Decode[%d] = %v, oracle %v", name, i, got[i], wantDeq[i])
	}
}

// halfSpecials are the inputs around every boundary of the binary16
// rounding rule.
var halfSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 65504, -65504, 65519.996, 65520, -65520, 65536, 1e5, -3e38,
	1.0 / (1 << 14), 1.0/(1<<14) - 1.0/(1<<26), 1.0 / (1 << 24), 1.0 / (1 << 25), -1.0 / (1 << 25),
	1.0/(1<<25) - 1.0/(1<<49), 1.5 / (1 << 24), 2.5 / (1 << 24), 1023.5 / (1 << 24), 1e-40, -1e-9,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1, -1, 1 + 1.0/(1<<11), 1 + 3.0/(1<<11),
}

// TestHalfDecodeTableMatchesScalar: all 65 536 halves.
func TestHalfDecodeTableMatchesScalar(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		got, want := math.Float32bits(halfToFloat[h]), math.Float32bits(refFloat16ToFloat32(uint16(h)))
		if got != want {
			t.Fatalf("half %#04x decodes to %#08x, scalar converter %#08x", h, got, want)
		}
	}
}

// TestHalfKernelsMatchScalar sweeps the bulk fp16 kernels against the
// scalar oracle over every sign x exponent x top-15 mantissa bits x a
// low byte on each side of every rounding boundary (10^8 inputs), with
// and without residuals (some non-finite, some cancelling, some pushing
// the sum across 2^-14, 65504 or into overflow), plus the specials:
// frame bytes, new residual, deq and the drop count all equal. -short
// and -race runs take every 61st pattern.
func TestHalfKernelsMatchScalar(t *testing.T) {
	stride := uint32(1)
	if testing.Short() || transport.RaceEnabled {
		stride = 61
	}
	rc := refCodecs()[0]
	residuals := []float32{0, 1.0 / (1 << 25), -1.0 / (1 << 24), 6.1e-5, -6.1e-5, 0.5, 65504, -65504, 3e38, -3e38,
		float32(math.Inf(1)), float32(math.NaN()), 1e-30, -1, 1.0 / (1 << 14), 7}
	const chunk = 6 << 13
	data := make([]float32, 0, chunk)
	res := make([]float32, chunk)
	wantRes, deq := make([]float32, chunk), make([]float32, chunk)
	frame, wantFrame := make([]byte, 0, 2*chunk), make([]byte, 0, 2*chunk)
	round := 0
	flush := func() {
		n := len(data)
		// Every chunk goes through without residual; the residual pass
		// takes every third chunk — a chunk is a quarter of one exponent's
		// mantissas, so every exponent meets it.
		passes := []bool{false}
		if round%3 == 0 {
			passes = []bool{false, true}
		}
		for _, withRes := range passes {
			var r, wr []float32
			if withRes {
				r, wr = res[:n], wantRes[:n]
				for i := range r {
					r[i] = residuals[(i+round)%len(residuals)]
					if i%7 == 3 {
						r[i] = -data[i] // cancels, or NaN against an Inf
					}
				}
				copy(wr, r)
			}
			wantDropped := dropsDuring(func() { wantFrame = refHalfEncode(wantFrame[:0], data, wr) })
			if got := dropsDuring(func() { frame = rc.codec.Encode(frame[:0], data, r, deq[:n]) }); got != wantDropped {
				t.Fatalf("residual %v: dropped %d, oracle %d", withRes, got, wantDropped)
			}
			if !bytes.Equal(frame, wantFrame) || sameBits(r, wr) >= 0 {
				for i := range data {
					if h, wh := binary.LittleEndian.Uint16(frame[2*i:]), binary.LittleEndian.Uint16(wantFrame[2*i:]); h != wh {
						t.Fatalf("residual %v: %#08x encodes to %#04x, oracle %#04x", withRes, math.Float32bits(data[i]), h, wh)
					}
					if withRes && math.Float32bits(r[i]) != math.Float32bits(wr[i]) {
						t.Fatalf("%#08x: residual %v, oracle %v", math.Float32bits(data[i]), r[i], wr[i])
					}
				}
			}
			for i, q := range deq[:n] {
				if want := refFloat16ToFloat32(binary.LittleEndian.Uint16(wantFrame[2*i:])); math.Float32bits(q) != math.Float32bits(want) {
					t.Fatalf("residual %v: %#08x: deq %v, frame decodes to %v", withRes, math.Float32bits(data[i]), q, want)
				}
			}
		}
		data = data[:0]
		round++
	}
	data = append(data, halfSpecials...)
	flush()
	for top := uint32(0); top < 1<<24; top += stride {
		for _, low := range [...]uint32{0x00, 0x01, 0x7f, 0x80, 0x81, 0xff} {
			data = append(data, math.Float32frombits(top<<8|low))
		}
		if len(data) == chunk {
			flush()
		}
	}
	flush()
}

// TestFloat16TieRounding pins the rounding rule at its tie points — the
// rule ARCHITECTURE.md and halfBits' comment state: nearest-even for
// normal results, half-UP for subnormal ones, Encode saturating to
// ±65504 where the scalar converters go to ±Inf. Changing any row
// changes frames, residuals and every compressed training trajectory.
func TestFloat16TieRounding(t *testing.T) {
	const ulp = 1.0 / (1 << 24) // the subnormal spacing, 2^-24
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		in            float32
		half          uint16
		round, encode float32 // the scalar converters composed; Decode(Encode(in))
	}{
		// Subnormal results: ties go up, whatever the parity.
		{0.5 * ulp, 0x0001, ulp, ulp}, // 2^-25
		{-0.5 * ulp, 0x8001, -ulp, -ulp},
		{1.5 * ulp, 0x0002, 2 * ulp, 2 * ulp},
		{2.5 * ulp, 0x0003, 3 * ulp, 3 * ulp}, // nearest-even would give 2
		{3.5 * ulp, 0x0004, 4 * ulp, 4 * ulp},
		{1022.5 * ulp, 0x03ff, 1023 * ulp, 1023 * ulp},
		{1023.5 * ulp, 0x0400, 1024 * ulp, 1024 * ulp}, // up into the first normal
		// Just under a tie rounds down; below 2^-25 is a signed zero.
		{math.Float32frombits(math.Float32bits(0.5*ulp) - 1), 0x0000, 0, 0},
		{math.Float32frombits(math.Float32bits(2.5*ulp) - 1), 0x0002, 2 * ulp, 2 * ulp},
		{-1e-9, 0x8000, float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))},
		// Normal results: ties go to the even mantissa.
		{1 + 1.0/2048, 0x3c00, 1, 1},                                  // between 1 and 1+2^-10: down to even
		{1 + 3.0/2048, 0x3c02, 1 + 2.0/1024, 1 + 2.0/1024},            // between 1+2^-10 and 1+2^-9: up to even
		{1024 * ulp * (1 + 1.0/2048), 0x0400, 1024 * ulp, 1024 * ulp}, // the first normal binade is already nearest-even
		{2 - 1.0/2048, 0x4000, 2, 2},                                  // a mantissa that rounds up carries into the exponent
		// The top of the range: Encode saturates, the converters overflow.
		{65504, 0x7bff, 65504, 65504},
		{65519.996, 0x7bff, 65504, 65504},
		{65520, 0x7bff, inf, 65504}, // tie between 65504 and 2^16: even is 2^16
		{-1e5, 0xfbff, -inf, -65504},
	} {
		if want := refFloat16ToFloat32(refFloat32ToFloat16(tc.in)); math.Float32bits(want) != math.Float32bits(tc.round) {
			t.Fatalf("the table is wrong about the scalar converters: %g rounds to %g, not %g", tc.in, want, tc.round)
		}
		frame := Float16Codec{}.Encode([]byte{}, []float32{tc.in}, nil, nil)
		if h := binary.LittleEndian.Uint16(frame); h != tc.half {
			t.Errorf("Encode(%g) = %#04x, want %#04x", tc.in, h, tc.half)
		}
		var out [1]float32
		if err := (Float16Codec{}).Decode(frame, out[:]); err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(out[0]) != math.Float32bits(tc.encode) {
			t.Errorf("Decode(Encode(%g)) = %g, want %g", tc.in, out[0], tc.encode)
		}
	}
}

// codecTestVectors are the (data, residual) shapes the per-codec oracle
// comparisons run over: empty, one element, partial bitmap bytes,
// magnitude ties (top-k's tie-breaking), zeros of both signs, the fp16
// boundaries, non-finite data and residuals, and seeded random vectors
// at gradient scale.
func codecTestVectors(rng *rand.Rand) [][2][]float32 {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	vecs := [][2][]float32{
		{{}, nil},
		{{}, {}},
		{{1.5}, nil},
		{{-0.25}, {0.125}},
		{{0, negZero, 0, negZero, 0}, nil},
		{{0, negZero, 0, negZero, 0}, {negZero, 0, 0, negZero, 1e-30}},
		{{1, -1, 1, -1, 1, -1, 1, -1, 1}, nil},
		{{2, -2, 2, 2, -2, 1, -1, 2, -2, 2, 0.5}, {0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0}},
		{{1, inf, -2, nan, 3}, {0, 0, 0, 0, 0}},
		{{1, inf, -2, nan, 3}, nil},
		{{3e38, 1, -1, -3e38}, {3e38, 0, nan, -3e38}},
		{{1, 2, 3}, {inf, -inf, nan}},
		{halfSpecials, nil},
		{halfSpecials, make([]float32, len(halfSpecials))},
	}
	for _, n := range []int{7, 8, 9, 64, 257, 1000} {
		for _, scale := range []float64{1e-2, 1e-4, 40} {
			data, res := make([]float32, n), make([]float32, n)
			for i := range data {
				data[i] = float32(rng.NormFloat64() * scale)
				res[i] = float32(rng.NormFloat64() * scale / 8)
			}
			vecs = append(vecs, [2][]float32{data, nil}, [2][]float32{data, res})
		}
	}
	return vecs
}

// TestEncodeMatchesReference: every codec, every calling convention of
// Encode, against the per-element bodies it replaced.
func TestEncodeMatchesReference(t *testing.T) {
	vecs := codecTestVectors(rand.New(rand.NewSource(18)))
	for _, rc := range refCodecs() {
		for _, v := range vecs {
			checkEncode(t, rc, v[0], v[1])
		}
	}
}

// TestDecodeAddMatchesDecodeThenFold: DecodeAdd is Decode into a
// scratch buffer followed by reduceInto(acc, scratch, Sum), bit for bit
// — including the sign of zero: a -0 in acc that meets a decoded +0
// (fp16's underflow, 1-bit's zero scale, every element top-k left out)
// comes out +0 on both paths.
func TestDecodeAddMatchesDecodeThenFold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	negZero := float32(math.Copysign(0, -1))
	for _, rc := range refCodecs() {
		for _, v := range codecTestVectors(rng) {
			frame := rc.encode(nil, v[0], append([]float32(nil), v[1]...))
			n := len(v[0])
			acc := make([]float32, n)
			for i := range acc {
				switch i % 4 {
				case 0:
					acc[i] = negZero
				case 1:
					acc[i] = 0
				default:
					acc[i] = float32(rng.NormFloat64())
				}
			}
			want, scratch := append([]float32(nil), acc...), make([]float32, n)
			if err := rc.decode(frame, scratch); err != nil {
				t.Fatal(err)
			}
			reduceInto(want, scratch, Sum)
			if err := rc.codec.DecodeAdd(frame, acc); err != nil {
				t.Fatalf("%s: %v", rc.codec.Name(), err)
			}
			if i := sameBits(acc, want); i >= 0 {
				t.Fatalf("%s n=%d: DecodeAdd[%d] = %v (bits %#08x), decode-then-fold %v (bits %#08x)",
					rc.codec.Name(), n, i, acc[i], math.Float32bits(acc[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestTopKDecodeWantsAscendingIndices: Encode emits strictly ascending
// indices and both decoders hold a frame to it — a repeated index would
// make DecodeAdd (which adds as it walks) and Decode (where the last
// pair wins) disagree.
func TestTopKDecodeWantsAscendingIndices(t *testing.T) {
	c := &TopKCodec{K: 0.5}
	frame := c.Encode([]byte{}, []float32{4, 0, 3, 0}, nil, nil) // pairs (0,4), (2,3)
	for name, mutate := range map[string]func(f []byte){
		"repeated":   func(f []byte) { f[8] = 0 },
		"descending": func(f []byte) { f[4], f[8] = 2, 0 },
	} {
		bad := append([]byte(nil), frame...)
		mutate(bad)
		if err := c.Decode(bad, make([]float32, 4)); err == nil {
			t.Errorf("%s indices: Decode accepted the frame", name)
		}
		if err := c.DecodeAdd(bad, make([]float32, 4)); err == nil {
			t.Errorf("%s indices: DecodeAdd accepted the frame", name)
		}
	}
}

// FuzzHalfKernelsMatchScalar feeds arbitrary float32 bit patterns, as
// data and as residuals, through the bulk fp16 kernels and the scalar
// oracle: frame, residual, deq, drop count, Decode and DecodeAdd agree
// on every input.
func FuzzHalfKernelsMatchScalar(f *testing.F) {
	seed := make([]byte, 0, 4*len(halfSpecials))
	for _, v := range halfSpecials {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
	}
	f.Add(seed, true)
	f.Add(seed, false)
	f.Add([]byte{0xff, 0xff, 0x7f, 0x47, 0x00, 0x00, 0x80, 0x33, 0x01, 0x00, 0x80, 0x38}, true)
	rc := refCodecs()[0]
	f.Fuzz(func(t *testing.T, raw []byte, withResidual bool) {
		vals := make([]float32, 0, len(raw)/4)
		for ; len(raw) >= 4 && len(vals) < 4096; raw = raw[4:] {
			vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(raw)))
		}
		data, residual := vals, []float32(nil)
		if withResidual {
			data, residual = vals[:len(vals)/2], vals[len(vals)/2:][:len(vals)/2]
		}
		checkEncode(t, rc, data, residual)

		frame := refHalfEncode(nil, data, append([]float32(nil), residual...))
		acc := append([]float32(nil), data...)
		want, scratch := append([]float32(nil), data...), make([]float32, len(data))
		if err := refHalfDecode(frame, scratch); err != nil {
			t.Fatal(err)
		}
		reduceRange(want, scratch, Sum)
		if err := rc.codec.DecodeAdd(frame, acc); err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			// A NaN in data keeps whichever payload the adder picks.
			if math.Float32bits(acc[i]) != math.Float32bits(want[i]) && !(acc[i] != acc[i] && want[i] != want[i]) {
				t.Fatalf("DecodeAdd[%d] = %v, decode-then-fold %v", i, acc[i], want[i])
			}
		}
	})
}

// TestCodecsAllocateNothingWarm: once the pools hold their scratch, a
// codec call allocates nothing — not the effective values, not the
// selection indices, not the frame (given a dst with room, as the
// collectives' pooled frames have).
func TestCodecsAllocateNothingWarm(t *testing.T) {
	if transport.RaceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const n = 4099
	rng := rand.New(rand.NewSource(20))
	data, residual := make([]float32, n), make([]float32, n)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 1e-2)
	}
	deq, acc := make([]float32, n), make([]float32, n)
	for _, c := range wireCodecs() {
		dst := make([]byte, 0, c.EncodedSize(n))
		frame := c.Encode(make([]byte, 0, c.EncodedSize(n)), data, nil, nil)
		for name, call := range map[string]func(){
			"Encode":          func() { c.Encode(dst, data, residual, nil) },
			"Encode+deq":      func() { c.Encode(dst, data, residual, deq) },
			"Encode deq only": func() { c.Encode(nil, data, residual, deq) },
			"Decode":          func() { _ = c.Decode(frame, deq) },
			"DecodeAdd":       func() { _ = c.DecodeAdd(frame, acc) },
		} {
			if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
				t.Errorf("%s %s: %v allocations per warm call, want 0", c.Name(), name, allocs)
			}
		}
	}
}
