package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// FormatVersion is the version of the on-disk checkpoint format. It is
// recorded in every shard header and manifest; readers refuse any other
// version, older or newer, by name instead of misreading it.
const FormatVersion = 2

// Magic numbers distinguishing the two file kinds. A reader that opens
// the wrong kind (or a torn/garbage file) fails on the first 8 bytes.
var (
	shardMagic    = [8]byte{'D', 'D', 'P', 'S', 'H', 'R', 'D', '1'}
	manifestMagic = [8]byte{'D', 'D', 'P', 'M', 'A', 'N', 'I', '1'}
)

// shardHeaderLen is the fixed shard header size: magic + version +
// generation + step + world + rank + offset + length, all little-endian.
const shardHeaderLen = 8 + 4 + 8 + 8 + 4 + 4 + 8 + 8

// crcLen is the length of the CRC32 (IEEE) trailer on both file kinds.
const crcLen = 4

// shardHeader is the fixed-size prefix of a shard file. Offset/Length
// locate the shard's payload inside the checkpoint's state blob, which
// is how a reader of any world size reassembles the blob (re-sharding).
type shardHeader struct {
	Version    uint32
	Generation int64
	Step       int64
	World      uint32
	Rank       uint32
	Offset     uint64
	Length     uint64
}

// ShardRef is a manifest's record of one shard file: which byte range
// of the state blob it holds and how large the file must be. The CRC of
// the shard's contents lives in the shard file itself (trailer), so the
// manifest stays cheap to produce — the committing rank never re-reads
// peers' payloads.
type ShardRef struct {
	// File is the shard's name, relative to the checkpoint directory.
	File string `json:"file"`
	// Rank is the writer's rank in the saving world.
	Rank int `json:"rank"`
	// Offset is the shard's byte offset into the state blob.
	Offset int64 `json:"offset"`
	// Length is the shard's payload byte length.
	Length int64 `json:"length"`
	// FileSize is the exact expected size of the shard file —
	// header + payload + CRC trailer — so truncation is detected by a
	// stat, before any payload is read.
	FileSize int64 `json:"file_size"`
}

// Manifest is the commit record of one checkpoint. A checkpoint exists
// if and only if its manifest file is fully present and
// checksum-valid: shards are written first, by all ranks in parallel,
// and the manifest is renamed into place last, by rank 0, after every
// shard is durable. A crash at any earlier point leaves either no
// manifest or a .tmp- file, both of which readers ignore.
type Manifest struct {
	// Version is the on-disk format version (FormatVersion at write).
	Version int `json:"version"`
	// Meta is the training progress the checkpoint captures.
	Meta Meta `json:"meta"`
	// World is the number of shards the state blob was split into.
	World int `json:"world"`
	// BlobBytes is the total state blob length; shards must cover
	// exactly [0, BlobBytes).
	BlobBytes int64 `json:"blob_bytes"`
	// Shards lists every shard of the checkpoint, ordered by rank.
	Shards []ShardRef `json:"shards"`
}

// ---- file naming -----------------------------------------------------------

// tmpPrefix marks in-flight files; readers skip them and writers rename
// them into their final name only after an fsync.
const tmpPrefix = ".tmp-"

// shardFileName returns the final name of rank r's shard of the
// checkpoint at (generation g, step s) in a world of w.
func shardFileName(g int, s int64, r, w int) string {
	return fmt.Sprintf("g%d-s%d-r%dof%d.shard", g, s, r, w)
}

// manifestFileName returns the final name of the (g, s) manifest.
func manifestFileName(g int, s int64) string {
	return fmt.Sprintf("g%d-s%d.manifest", g, s)
}

// parseCheckpointName extracts (generation, step) from a shard or
// manifest file name (with or without the tmp prefix). ok is false for
// unrelated files.
func parseCheckpointName(name string) (g int, s int64, ok bool) {
	name = strings.TrimPrefix(name, tmpPrefix)
	if !strings.HasPrefix(name, "g") {
		return 0, 0, false
	}
	rest := name[1:]
	i := strings.IndexByte(rest, '-')
	if i < 0 || len(rest) < i+2 || rest[i+1] != 's' {
		return 0, 0, false
	}
	g, err := strconv.Atoi(rest[:i])
	if err != nil {
		return 0, 0, false
	}
	num := rest[i+2:]
	if j := strings.IndexAny(num, "-."); j >= 0 {
		num = num[:j]
	}
	s, err2 := strconv.ParseInt(num, 10, 64)
	if err2 != nil {
		return 0, 0, false
	}
	return g, s, true
}

// ---- shard encoding --------------------------------------------------------

// encodeShardHeader renders h into the fixed binary layout.
func encodeShardHeader(h shardHeader) []byte {
	buf := make([]byte, shardHeaderLen)
	copy(buf[:8], shardMagic[:])
	le := binary.LittleEndian
	le.PutUint32(buf[8:], h.Version)
	le.PutUint64(buf[12:], uint64(h.Generation))
	le.PutUint64(buf[20:], uint64(h.Step))
	le.PutUint32(buf[28:], h.World)
	le.PutUint32(buf[32:], h.Rank)
	le.PutUint64(buf[36:], h.Offset)
	le.PutUint64(buf[44:], h.Length)
	return buf
}

// decodeShardHeader parses and validates the fixed shard header.
func decodeShardHeader(buf []byte) (shardHeader, error) {
	var h shardHeader
	if len(buf) < shardHeaderLen {
		return h, fmt.Errorf("ckpt: shard header truncated: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[:8], shardMagic[:]) {
		return h, fmt.Errorf("ckpt: bad shard magic %q", buf[:8])
	}
	le := binary.LittleEndian
	h.Version = le.Uint32(buf[8:])
	if h.Version != FormatVersion {
		return h, fmt.Errorf("ckpt: shard format version %d, this build reads only %d", h.Version, FormatVersion)
	}
	h.Generation = int64(le.Uint64(buf[12:]))
	h.Step = int64(le.Uint64(buf[20:]))
	h.World = le.Uint32(buf[28:])
	h.Rank = le.Uint32(buf[32:])
	h.Offset = le.Uint64(buf[36:])
	h.Length = le.Uint64(buf[44:])
	return h, nil
}

// shardFileSize returns the exact on-disk size of a shard holding n
// payload bytes.
func shardFileSize(n int64) int64 { return shardHeaderLen + n + crcLen }

// writeShardFile durably writes one shard: header + payload + CRC32
// trailer into a .tmp- file, fsync, then an atomic rename to its final
// name (followed by a best-effort directory fsync, so the rename itself
// survives a host crash).
func writeShardFile(dir string, h shardHeader, payload []byte) (string, error) {
	name := shardFileName(int(h.Generation), h.Step, int(h.Rank), int(h.World))
	hdr := encodeShardHeader(h)
	crc := crc32.NewIEEE()
	crc.Write(hdr)
	crc.Write(payload)
	var trailer [crcLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if err := writeFileAtomic(dir, name, hdr, payload, trailer[:]); err != nil {
		return "", err
	}
	return name, nil
}

// readShardFile reads and fully validates one shard file: magic,
// version, header/manifest consistency, exact size, and payload CRC.
func readShardFile(path string) (shardHeader, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return shardHeader{}, nil, fmt.Errorf("ckpt: reading shard: %w", err)
	}
	h, err := decodeShardHeader(raw)
	if err != nil {
		return h, nil, fmt.Errorf("ckpt: %s: %w", filepath.Base(path), err)
	}
	want := shardFileSize(int64(h.Length))
	if int64(len(raw)) != want {
		return h, nil, fmt.Errorf("ckpt: shard %s truncated: %d bytes, want %d", filepath.Base(path), len(raw), want)
	}
	body := raw[:len(raw)-crcLen]
	got := binary.LittleEndian.Uint32(raw[len(raw)-crcLen:])
	if sum := crc32.ChecksumIEEE(body); sum != got {
		return h, nil, fmt.Errorf("ckpt: shard %s payload corrupt: crc32 %08x, want %08x", filepath.Base(path), sum, got)
	}
	return h, body[shardHeaderLen:], nil
}

// ---- manifest encoding -----------------------------------------------------

// encodeManifest renders m as magic + u32 length + JSON + CRC32
// trailer. JSON keeps the commit record operator-readable (`strings` on
// a checkpoint dir shows progress); the binary frame keeps it
// integrity-checked like the shards.
func encodeManifest(m *Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encoding manifest: %w", err)
	}
	buf := make([]byte, 0, 8+4+len(body)+crcLen)
	buf = append(buf, manifestMagic[:]...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(body)))
	buf = append(buf, n[:]...)
	buf = append(buf, body...)
	binary.LittleEndian.PutUint32(n[:], crc32.ChecksumIEEE(buf))
	return append(buf, n[:]...), nil
}

// decodeManifest parses and validates a manifest file image.
func decodeManifest(raw []byte) (*Manifest, error) {
	if len(raw) < 8+4+crcLen {
		return nil, fmt.Errorf("ckpt: manifest truncated: %d bytes", len(raw))
	}
	if !bytes.Equal(raw[:8], manifestMagic[:]) {
		return nil, fmt.Errorf("ckpt: bad manifest magic %q", raw[:8])
	}
	bodyLen := int(binary.LittleEndian.Uint32(raw[8:]))
	if len(raw) != 8+4+bodyLen+crcLen {
		return nil, fmt.Errorf("ckpt: manifest truncated: %d bytes, want %d", len(raw), 8+4+bodyLen+crcLen)
	}
	body := raw[:len(raw)-crcLen]
	got := binary.LittleEndian.Uint32(raw[len(raw)-crcLen:])
	if sum := crc32.ChecksumIEEE(body); sum != got {
		return nil, fmt.Errorf("ckpt: manifest corrupt: crc32 %08x, want %08x", sum, got)
	}
	var m Manifest
	if err := json.Unmarshal(body[8+4:], &m); err != nil {
		return nil, fmt.Errorf("ckpt: decoding manifest: %w", err)
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: manifest format version %d, this build reads only %d", m.Version, FormatVersion)
	}
	return &m, nil
}

// readManifestFile loads and validates the manifest at path.
func readManifestFile(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading manifest: %w", err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", filepath.Base(path), err)
	}
	return m, nil
}

// ---- atomic file plumbing --------------------------------------------------

// writeFileAtomic writes the concatenation of chunks to dir/name via
// the write-tmp → fsync → rename protocol. Readers either see the
// complete file under its final name or no file at all.
func writeFileAtomic(dir, name string, chunks ...[]byte) error {
	tmp := filepath.Join(dir, tmpPrefix+name)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: creating %s: %w", tmp, err)
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			_ = f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ckpt: writing %s: %w", tmp, err)
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: committing %s: %w", name, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives a host
// crash. Best-effort: some filesystems reject directory fsync, and a
// failure only narrows durability, never correctness.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
