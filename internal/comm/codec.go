package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/tensor"
)

// Codec is the gradient compression of Section 6.2.3: a lossy projection
// of gradients into a lower-precision representation AND its wire
// format, which the compressed collectives ship over the transports'
// byte lanes. Decode(Encode(x)) defines the quantization. Non-finite
// inputs meet the drop guard (the comm_dropped_nonfinite_total metric), and fp16 saturates
// out-of-range values to ±65504.
//
// Error feedback is caller-owned: when Encode receives a non-nil
// residual (same length as data), the value quantized for element i is
// data[i]+residual[i] and residual[i] is replaced with the new
// quantization error, so the error accumulates across iterations
// instead of being lost (Seide et al.'s 1-bit SGD scheme). DDP keys
// these residuals by parameter identity so they survive bucket
// rebuilds and elastic reconfigurations.
//
// A collective never decodes bytes it produced itself and never decodes
// into a buffer only to add it to another: Encode hands back the
// dequantized values in the pass that quantizes them (deq), and
// DecodeAdd folds a peer's frame straight into the accumulator. Both
// are defined by Decode — deq receives exactly the values Decode of the
// produced frame yields, DecodeAdd performs exactly the float32
// additions Decode into a scratch buffer followed by acc[i] += scratch[i]
// performs (a -0 in acc meeting a decoded +0 becomes +0 either way) —
// so fusing the passes changes no bit of any result.
//
// None of the methods may mutate receiver state: one codec instance may
// serve concurrent collectives (round-robin groups run one worker per
// sub-group). All state rides in the arguments.
type Codec interface {
	// Name identifies the codec in benchmark output.
	Name() string
	// EncodedSize returns the number of bytes Encode appends for n
	// elements, exactly: it depends on n alone, never on the values, so a
	// receiver can find where one chunk's frame ends inside a frame that
	// carries several (the two-rank compressed AllReduce does).
	EncodedSize(n int) int
	// Encode appends the compressed representation of data to dst and
	// returns the extended slice. residual is nil (no error feedback)
	// or a slice of len(data) updated in place. deq is nil or a slice
	// of len(data) that receives what Decode of the frame yields; it
	// may be data itself, which quantizes data in place, and is the only
	// way Encode modifies data. A caller that passes deq and a nil dst
	// wants the values alone: no frame is built and nil is returned.
	// Encoding zero elements appends nothing.
	Encode(dst []byte, data, residual, deq []float32) []byte
	// Decode expands one Encode frame into out, whose length must equal
	// the element count that was encoded.
	Decode(buf []byte, out []float32) error
	// DecodeAdd adds the values Decode(buf, ·) yields to acc element by
	// element, without materializing them.
	DecodeAdd(buf []byte, acc []float32) error
}

// WireCodec is Codec under the name it had while a codec without a wire
// format could exist; the frozen benchmark module spells it this way.
type WireCodec = Codec

// nonFiniteDropped counts gradient elements dropped because they were
// Inf/NaN at encode time (the comm_dropped_nonfinite_total metric).
var nonFiniteDropped atomic.Uint64

// countDropped records n elements dropped by one Encode call.
func countDropped(n int) {
	if n > 0 {
		nonFiniteDropped.Add(uint64(n))
		mDroppedNonFinite.Add(float64(n))
	}
}

// The sign bit and the exponent field of a float32; a value is Inf or
// NaN exactly when the exponent field is all ones.
const (
	signMask = 0x80000000
	expMask  = 0x7f800000
)

// extend grows dst by n bytes of unspecified content and returns the
// grown slice and the new tail.
func extend(dst []byte, n int) (grown, tail []byte) {
	at := len(dst)
	grown = slices.Grow(dst, n)[:at+n]
	return grown, grown[at:]
}

// wantsFrame reports whether an Encode call has to build its frame:
// always, unless the caller passed only deq (see Codec.Encode).
func wantsFrame(dst []byte, deq []float32) bool { return dst != nil || deq == nil }

// Float16Codec rounds values through IEEE half precision (2x smaller).
// On the wire each element travels as its binary16 bits. The rounding
// rule is tensor.HalfEncode's.
type Float16Codec struct{}

// Name implements Codec.
func (Float16Codec) Name() string { return "fp16" }

// EncodedSize implements Codec: two bytes per element.
func (Float16Codec) EncodedSize(n int) int { return 2 * n }

// Encode implements Codec: each element's binary16 bits,
// little-endian, saturating to ±65504 (tensor.HalfEncode, which states
// the rounding rule). With error feedback the rounding (and saturation)
// error accumulates in residual instead of being lost: the residual is
// measured against the ORIGINAL value, so saturation error (v - 65504)
// is carried forward like any other quantization error.
func (Float16Codec) Encode(dst []byte, data, residual, deq []float32) []byte {
	var frame []byte
	if wantsFrame(dst, deq) {
		dst, frame = extend(dst, 2*len(data))
	}
	countDropped(tensor.HalfEncode(frame, data, residual, deq))
	return dst
}

// Decode implements Codec.
func (Float16Codec) Decode(buf []byte, out []float32) error {
	if err := checkHalfFrame(buf, out); err != nil {
		return err
	}
	tensor.HalfDecode(buf, out)
	return nil
}

// DecodeAdd implements Codec.
func (Float16Codec) DecodeAdd(buf []byte, acc []float32) error {
	if err := checkHalfFrame(buf, acc); err != nil {
		return err
	}
	tensor.HalfDecodeAdd(buf, acc)
	return nil
}

// checkHalfFrame fails a binary16 frame that is not two bytes for each
// of out's elements.
func checkHalfFrame(buf []byte, out []float32) error {
	if len(buf) != 2*len(out) {
		return fmt.Errorf("comm: fp16 frame is %d bytes for %d elements", len(buf), len(out))
	}
	return nil
}

// landRounded lands the two-rank exchange's frame (compressedSteps'
// pair path) on acc: acc[i] = quant(acc[i] + dec(buf[i])) · s, where quant
// is the codec's round trip without a residual — the float32 operations
// of DecodeAdd, a round trip of acc in place and ScaleFloats (skipped
// when s is 1), which fp16 performs in one pass (tensor.HalfLand).
func landRounded(c Codec, buf []byte, acc []float32, s float32) error {
	if _, fp16 := c.(Float16Codec); fp16 {
		if err := checkHalfFrame(buf, acc); err != nil {
			return err
		}
		countDropped(tensor.HalfLand(buf, acc, s))
		return nil
	}
	if err := c.DecodeAdd(buf, acc); err != nil {
		return err
	}
	c.Encode(nil, acc, nil, acc)
	if s != 1 {
		tensor.ScaleFloats(acc, s)
	}
	return nil
}

// OneBitCodec keeps only the sign of each gradient element, scaled by
// the mean magnitude, with error feedback carrying the quantization
// residual into the next iteration (Seide et al., the 1-bit SGD scheme
// the paper cites). On the wire a frame is a 4-byte scale followed by a
// sign bitmap (~32x smaller).
type OneBitCodec struct{}

// Name implements Codec.
func (c *OneBitCodec) Name() string { return "1bit" }

// EncodedSize implements Codec: a 4-byte scale plus one bit per
// element.
func (c *OneBitCodec) EncodedSize(n int) int {
	if n == 0 {
		return 0
	}
	return 4 + (n+7)/8
}

// effective materializes into vals the values an Encode call quantizes
// — data[i]+residual[i] under error feedback, 0 for a dropped
// non-finite element — so every later pass agrees on exactly what each
// element is (recomputing the sum after the drop would see a DIFFERENT,
// possibly huge-but-finite value and leak it into the residual). The
// caller passes its deq as vals when it has one, and overwrites it in
// place in its last pass, or a pooled buffer. Returned are the sum of
// the finite magnitudes, accumulated in index order, and the number of
// elements dropped.
func effective(vals, data, residual []float32) (sumAbs float64, dropped int) {
	vals = vals[:len(data)]
	for i, v := range data {
		if i < len(residual) {
			v += residual[i]
		}
		if math.Float32bits(v)&expMask == expMask {
			v = 0
			dropped++
		} else {
			sumAbs += math.Abs(float64(v))
		}
		vals[i] = v
	}
	countDropped(dropped)
	return sumAbs, dropped
}

// Encode implements Codec: [scale float32][sign bitmap], bit set =
// negative. The scale is the mean magnitude over the finite values;
// non-finite elements are dropped (treated as zero: excluded from the
// scale, transmitted as the zero sign) instead of making the scale —
// and every element of the frame — NaN.
func (c *OneBitCodec) Encode(dst []byte, data, residual, deq []float32) []byte {
	n := len(data)
	if n == 0 {
		return dst
	}
	vals := deq
	if vals == nil {
		vals = buffer.GetFloats(n)
		defer buffer.PutFloats(vals)
	}
	sumAbs, dropped := effective(vals, data, residual)
	var scale float32
	if finite := n - dropped; finite > 0 {
		scale = float32(sumAbs / float64(finite))
	}
	var bitmap []byte
	if wantsFrame(dst, deq) {
		var frame []byte
		dst, frame = extend(dst, c.EncodedSize(n))
		binary.LittleEndian.PutUint32(frame, math.Float32bits(scale))
		bitmap = frame[4:]
		clear(bitmap)
	}
	// The sign of a gradient element is a coin flip, so the pass takes
	// it from the bits instead of branching on it: negative means sign
	// bit set and magnitude nonzero (v < 0 is false for -0, and vals
	// holds no NaN).
	scaleBits := math.Float32bits(scale)
	for i, v := range vals {
		b := math.Float32bits(v)
		neg := (b & (b&^signMask + signMask - 1)) >> 31
		q := math.Float32frombits(scaleBits | neg<<31)
		if i>>3 < len(bitmap) {
			bitmap[i>>3] |= byte(neg << (i & 7))
		}
		if i < len(residual) {
			residual[i] = v - q
		}
		if i < len(deq) {
			deq[i] = q
		}
	}
	return dst
}

// Decode implements Codec.
func (c *OneBitCodec) Decode(buf []byte, out []float32) error {
	return c.decode(buf, out, false)
}

// DecodeAdd implements Codec.
func (c *OneBitCodec) DecodeAdd(buf []byte, acc []float32) error {
	return c.decode(buf, acc, true)
}

func (c *OneBitCodec) decode(buf []byte, out []float32, add bool) error {
	n := len(out)
	if len(buf) != c.EncodedSize(n) {
		return fmt.Errorf("comm: 1bit frame is %d bytes for %d elements", len(buf), n)
	}
	if n == 0 {
		return nil
	}
	scaleBits := binary.LittleEndian.Uint32(buf)
	bitmap := buf[4:]
	for i := range out {
		// A set bit negates the scale: flip its sign bit, branch-free.
		q := math.Float32frombits(scaleBits ^ uint32(bitmap[i>>3]>>(i&7)&1)<<31)
		if add {
			q = out[i] + q
		}
		out[i] = q
	}
	return nil
}

// DefaultTopKFraction is the kept fraction TopKCodec uses: the top 10%
// of elements by magnitude, a common operating point in the gradient
// sparsification literature.
const DefaultTopKFraction = 0.1

// TopKCodec transmits only the largest-magnitude fraction of the
// elements as (index, value) pairs; everything else is carried forward
// by error feedback (the caller-owned residual handed to Encode).
// Values selected are transmitted exactly,
// so with error feedback every gradient element eventually arrives —
// just spread over iterations.
type TopKCodec struct {
	// k is the kept fraction in (0, 1]; 0 selects DefaultTopKFraction.
	// Only comm's tests set another.
	k float64
}

// fraction returns the effective kept fraction.
func (c *TopKCodec) fraction() float64 {
	if c.k <= 0 || c.k > 1 {
		return DefaultTopKFraction
	}
	return c.k
}

// kept returns how many of n elements a frame carries.
func (c *TopKCodec) kept(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(c.fraction() * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Name implements Codec.
func (c *TopKCodec) Name() string { return "topk" }

// EncodedSize implements Codec: a 4-byte count plus 8 bytes per
// kept element.
func (c *TopKCodec) EncodedSize(n int) int {
	if n == 0 {
		return 0
	}
	return 4 + 8*c.kept(n)
}

// Encode implements Codec:
// [count uint32][count x index uint32][count x value float32].
// Selection is by descending magnitude with ascending-index
// tie-breaking — a deterministic total order, found by quickselect in
// O(n) expected time (this runs per bucket per iteration; a full sort
// of multi-million-element buckets would eat the latency the
// compression buys). Indices are emitted strictly ascending, and Decode
// accepts nothing else.
func (c *TopKCodec) Encode(dst []byte, data, residual, deq []float32) []byte {
	n := len(data)
	if n == 0 {
		return dst
	}
	// Scratch comes from pools, not instance fields: Encode must stay
	// goroutine-safe (one codec serves concurrent collectives), and a
	// 25MB bucket would otherwise allocate ~12n bytes of garbage per
	// call on the hot path.
	vals := deq
	if vals == nil {
		vals = buffer.GetFloats(n)
		defer buffer.PutFloats(vals)
	}
	effective(vals, data, residual)
	ip := topkIdxPool.Get().(*[]int)
	idx := *ip
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	defer func() { *ip = idx; topkIdxPool.Put(ip) }()
	for i := range idx {
		idx[i] = i
	}
	k := c.kept(n)
	selectTopK(idx, vals, k)
	sel := idx[:k]
	sort.Ints(sel)
	if wantsFrame(dst, deq) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
		for _, i := range sel {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		}
		for _, i := range sel {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(vals[i]))
		}
	}
	if residual == nil && deq == nil {
		return dst
	}
	// sel is ascending: one two-pointer pass splits transmitted (the
	// value went out exactly: it stays in deq and leaves no residual)
	// from carried (all of it stays behind; the frame decodes to zero).
	s := 0
	for i, carried := range vals {
		if s < len(sel) && sel[s] == i {
			s++
			carried = 0
		} else if i < len(deq) {
			deq[i] = 0
		}
		if i < len(residual) {
			residual[i] = carried
		}
	}
	return dst
}

// topkIdxPool recycles Encode's selection scratch across calls and
// goroutines.
var topkIdxPool = sync.Pool{New: func() any { return new([]int) }}

// topKRanks reports whether element a outranks element b in top-k
// selection: greater magnitude first, ascending index on ties. A total
// order, so the selected set is deterministic.
func topKRanks(vals []float32, a, b int) bool {
	ma := math.Abs(float64(vals[a]))
	mb := math.Abs(float64(vals[b]))
	if ma != mb {
		return ma > mb
	}
	return a < b
}

// selectTopK partially orders idx so its first k entries are exactly
// the top-k elements under topKRanks (in unspecified internal order) —
// Hoare-partition quickselect with a middle pivot, O(n) expected.
func selectTopK(idx []int, vals []float32, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 1 && k > lo && k < hi {
		pivot := idx[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for topKRanks(vals, idx[i], pivot) {
				i++
			}
			for topKRanks(vals, pivot, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// idx[lo:j+1] all rank >= pivot's side, idx[i:hi] all rank
		// after; recurse into whichever span still straddles k.
		if k <= j {
			hi = j + 1
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// Decode implements Codec: zero the output and scatter the pairs.
func (c *TopKCodec) Decode(buf []byte, out []float32) error {
	return c.decode(buf, out, false)
}

// DecodeAdd implements Codec. The elements between the pairs get
// the +0 Decode would have written added to them, not skipped: that is
// what turns a -0 in acc into the +0 the unfused fold leaves.
func (c *TopKCodec) DecodeAdd(buf []byte, acc []float32) error {
	return c.decode(buf, acc, true)
}

func (c *TopKCodec) decode(buf []byte, out []float32, add bool) error {
	n := len(out)
	if n == 0 {
		if len(buf) != 0 {
			return fmt.Errorf("comm: topk frame is %d bytes for 0 elements", len(buf))
		}
		return nil
	}
	if len(buf) < 4 {
		return fmt.Errorf("comm: topk frame truncated (%d bytes)", len(buf))
	}
	k := int(binary.LittleEndian.Uint32(buf))
	if k < 0 || k > n || len(buf) != 4+8*k {
		return fmt.Errorf("comm: topk frame claims %d pairs in %d bytes for %d elements", k, len(buf), n)
	}
	idxs, vals := buf[4:4+4*k], buf[4+4*k:]
	if !add {
		clear(out)
	}
	next := 0 // the first element no pair has covered yet
	for j := 0; j < len(idxs); j += 4 {
		i := int(binary.LittleEndian.Uint32(idxs[j:]))
		if i < next || i >= n {
			return fmt.Errorf("comm: topk index %d out of order or range [%d,%d)", i, next, n)
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(vals[j:]))
		if add {
			for ; next < i; next++ {
				out[next] += 0
			}
			v = out[i] + v
		}
		out[i] = v
		next = i + 1
	}
	for ; add && next < n; next++ {
		out[next] += 0
	}
	return nil
}

var (
	_ Codec = Float16Codec{}
	_ Codec = (*OneBitCodec)(nil)
	_ Codec = (*TopKCodec)(nil)
)
