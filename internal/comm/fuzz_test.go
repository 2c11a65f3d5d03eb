package comm

import (
	"math"
	"testing"
)

// fuzzWireCodecs returns fresh instances of every wire codec; fresh per
// call so a crashing input reproduces without cross-run scratch state.
func fuzzWireCodecs() []WireCodec {
	return []WireCodec{Float16Codec{}, &OneBitCodec{}, &TopKCodec{}}
}

// FuzzWireCodecDecode throws arbitrary byte frames at every wire
// codec's Decode with an attacker-controlled element count. Decode
// frames arrive off the network from peers, so the decoder must reject
// (not index out of range on) any frame: truncated, oversized, a
// frame from a different codec, or one whose embedded counts and
// indices lie about the payload — and DecodeAdd must draw the same line.
// It also checks the encode side on the
// same input reinterpreted as floats: frames fit EncodedSize, decode
// cleanly, and never materialize non-finite values from finite input.
func FuzzWireCodecDecode(f *testing.F) {
	// Valid single frames from each codec over a small payload, plus
	// classic malformations, seed the corpus.
	sample := []float32{1, -2.5, 0.125, 3e-9, -42, 0, 7.75, -0.001}
	for _, c := range fuzzWireCodecs() {
		f.Add(c.Encode(nil, sample, nil, nil), uint16(len(sample)))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x01}, uint16(4))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(8))             // topk: absurd k
	f.Add([]byte{2, 0, 0, 0, 9, 0, 0, 0}, uint16(3))             // topk: index 9 of 3
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff}, uint16(2)) // inf bit patterns

	f.Fuzz(func(t *testing.T, frame []byte, n uint16) {
		if n > 4096 {
			n = 4096
		}
		out, acc := make([]float32, n), make([]float32, n)
		for _, c := range fuzzWireCodecs() {
			// Arbitrary frames: any outcome but a panic or an
			// out-of-range write is acceptable — as long as DecodeAdd
			// takes exactly the frames Decode takes and adds to its
			// (zero) accumulator what Decode wrote.
			clear(acc)
			err, errAdd := c.Decode(frame, out), c.DecodeAdd(frame, acc)
			if (err == nil) != (errAdd == nil) {
				t.Fatalf("%s: Decode says %v, DecodeAdd %v", c.Name(), err, errAdd)
			}
			for i := range out {
				if err == nil && acc[i] != out[i] && (acc[i] == acc[i] || out[i] == out[i]) {
					t.Fatalf("%s: DecodeAdd[%d] = %v, Decode %v", c.Name(), i, acc[i], out[i])
				}
			}
		}

		// Reinterpret the input as float32 data and check the
		// encode→decode contract on whatever finite values result.
		data := make([]float32, 0, len(frame)/4)
		for i := 0; i+4 <= len(frame) && len(data) < 4096; i += 4 {
			v := math.Float32frombits(uint32(frame[i]) | uint32(frame[i+1])<<8 |
				uint32(frame[i+2])<<16 | uint32(frame[i+3])<<24)
			data = append(data, v)
		}
		allFinite := true
		for _, v := range data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				allFinite = false
				break
			}
		}
		for _, c := range fuzzWireCodecs() {
			enc := c.Encode(nil, data, nil, nil)
			if len(enc) > c.EncodedSize(len(data)) {
				t.Fatalf("%s: frame %d bytes exceeds EncodedSize bound %d for %d elems",
					c.Name(), len(enc), c.EncodedSize(len(data)), len(data))
			}
			dec := make([]float32, len(data))
			if err := c.Decode(enc, dec); err != nil {
				t.Fatalf("%s: decoding own frame: %v", c.Name(), err)
			}
			if allFinite {
				for i, v := range dec {
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						t.Fatalf("%s: finite input produced non-finite dec[%d]=%v (data[%d]=%v)",
							c.Name(), i, v, i, data[i])
					}
				}
			}
		}
	})
}
