package ckpt

import (
	"bytes"
	"testing"
)

// FuzzManifestLoad feeds arbitrary bytes to the two on-disk decoders.
// Checkpoint files are read back after crashes, partial writes, and
// version skew, so the decoders must reject any corruption with an
// error — never a panic or a silently wrong Manifest. On inputs that
// do decode, the manifest must survive an encode→decode round trip
// unchanged (the CRC and length framing are deterministic).
func FuzzManifestLoad(f *testing.F) {
	valid, err := encodeManifest(&Manifest{
		Version:   FormatVersion,
		Meta:      Meta{Step: 1200, Generation: 3, World: 4},
		World:     4,
		BlobBytes: 1 << 16,
		Shards: []ShardRef{
			{File: "shard-g3-s1200-r0of4.ddp", Rank: 0, Offset: 0, Length: 1 << 14},
			{File: "shard-g3-s1200-r1of4.ddp", Rank: 1, Offset: 1 << 14, Length: 1 << 14},
		},
	})
	if err != nil {
		f.Fatalf("encoding seed manifest: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])          // truncated CRC
	f.Add(append([]byte("DDPMANI1"), 0)) // magic only
	f.Add(encodeShardHeader(shardHeader{
		Version: FormatVersion, Generation: 3, Step: 1200,
		World: 4, Rank: 1, Offset: 1 << 14, Length: 1 << 14,
	}))
	// A well-formed frame claiming any other format version, older or
	// newer, must be rejected, not misread.
	for _, v := range []int{FormatVersion - 1, FormatVersion + 1} {
		other, err := encodeManifest(&Manifest{Version: v})
		if err != nil {
			f.Fatalf("encoding version-%d seed: %v", v, err)
		}
		f.Add(other)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw)
		if err == nil {
			if m == nil {
				t.Fatal("decodeManifest returned nil manifest and nil error")
			}
			if m.Version != FormatVersion {
				t.Fatalf("decodeManifest accepted version %d", m.Version)
			}
			re, err := encodeManifest(m)
			if err != nil {
				t.Fatalf("re-encoding decoded manifest: %v", err)
			}
			m2, err := decodeManifest(re)
			if err != nil {
				t.Fatalf("round trip failed to decode: %v", err)
			}
			if m2.Meta != m.Meta || m2.World != m.World ||
				m2.BlobBytes != m.BlobBytes ||
				len(m2.Shards) != len(m.Shards) {
				t.Fatalf("round trip changed manifest: %+v -> %+v", m, m2)
			}
		}

		h, err := decodeShardHeader(raw)
		if err == nil {
			if h.Version != FormatVersion {
				t.Fatalf("decodeShardHeader accepted version %d", h.Version)
			}
			if !bytes.Equal(encodeShardHeader(h)[:shardHeaderLen], raw[:shardHeaderLen]) {
				t.Fatal("shard header round trip changed bytes")
			}
		}
	})
}
