package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Writer persists sharded checkpoints into one directory. Every rank of
// a world holds an identical Writer (same Dir, same Committer) and
// calls Save with the same snapshot sequence; each call writes only the
// calling rank's slice of the state blob, so wall-clock checkpoint cost
// scales down with world size instead of serializing through rank 0.
//
// Writer itself is synchronous; wrap it in an AsyncWriter to move the
// file I/O off the training hot path.
type Writer struct {
	// Dir is the checkpoint directory, created on first use. All ranks
	// must resolve it to the same storage (shared filesystem, or one
	// host) for restore to see every shard.
	Dir string
	// Committer coordinates the all-shards-durable point; required.
	Committer *StoreCommitter
	// Keep is how many committed checkpoints to retain (default 2 — the
	// newest plus one fallback, so a checkpoint corrupted at rest never
	// strands the run with nothing to load).
	Keep int
	// Fault, when non-nil, is consulted before every shard and manifest
	// write — the fault-injection seam chaos tests use to model slow or
	// failing checkpoint disks. Nil (no interception) in production.
	Fault FaultHook
}

// FaultHook intercepts checkpoint disk writes for fault injection. A
// hook that sleeps models a slow disk; a hook that returns an error
// fails the write exactly where a full or dying disk would, before any
// bytes land. The hook runs on the saving goroutine (the training
// thread for synchronous saves, the AsyncWriter goroutine otherwise).
type FaultHook interface {
	// BeforeWrite is called with the target file's base name
	// immediately before a shard or manifest write begins.
	BeforeWrite(name string) error
}

// Save persists rank's shard of the snapshot and, on rank 0, commits
// the checkpoint: after the Committer reports every shard durable, the
// manifest is atomically renamed into place and older checkpoints
// beyond Keep are pruned. A crash anywhere before the manifest rename
// leaves the directory's previously committed checkpoints untouched and
// fully loadable.
//
// Closing cancel (may be nil) abandons a save blocked at the commit
// barrier with ErrAbandoned — the elastic agent does this when the
// generation moves past the save's, because a dead peer's shard would
// otherwise be waited for until the Committer's timeout.
func (w *Writer) Save(snap *Snapshot, rank, world int, cancel <-chan struct{}) error {
	if w.Committer == nil {
		return fmt.Errorf("ckpt: Writer.Committer is required")
	}
	if rank < 0 || world <= 0 || rank >= world {
		return fmt.Errorf("ckpt: invalid shard identity rank %d of world %d", rank, world)
	}
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: creating checkpoint dir: %w", err)
	}
	start := time.Now()
	blob := snap.Bytes()
	meta := snap.Meta
	off, length := ShardRange(int64(len(blob)), rank, world)
	h := shardHeader{
		Version:    FormatVersion,
		Generation: int64(meta.Generation),
		Step:       meta.Step,
		World:      uint32(world),
		Rank:       uint32(rank),
		Offset:     uint64(off),
		Length:     uint64(length),
	}
	if w.Fault != nil {
		if err := w.Fault.BeforeWrite(shardFileName(meta.Generation, meta.Step, rank, world)); err != nil {
			return fmt.Errorf("ckpt: shard write fault: %w", err)
		}
	}
	if _, err := writeShardFile(w.Dir, h, blob[off:off+length]); err != nil {
		return err
	}
	if err := w.Committer.Done(meta.Generation, meta.Step, rank, world, cancel); err != nil {
		if !errors.Is(err, ErrAbandoned) {
			mCommitFailures.Inc()
		}
		return err
	}
	if rank == 0 {
		if err := w.commit(meta, world, int64(len(blob))); err != nil {
			mCommitFailures.Inc()
			return err
		}
	}
	dur := time.Since(start)
	mSaveDur.Observe(dur.Seconds())
	mSaveBytes.Observe(float64(length))
	mLastSaveDur.Set(dur.Seconds())
	mLastSaveBytes.Set(float64(length))
	mLastSavedStep.Set(float64(meta.Step))
	return nil
}

// commit is rank 0's post-barrier duty: sanity-check every shard's
// presence and size, atomically publish the manifest, and prune old
// checkpoints.
func (w *Writer) commit(meta Meta, world int, blobLen int64) error {
	m := &Manifest{
		Version:   FormatVersion,
		Meta:      meta,
		World:     world,
		BlobBytes: blobLen,
		Shards:    make([]ShardRef, world),
	}
	for r := 0; r < world; r++ {
		off, length := ShardRange(blobLen, r, world)
		ref := ShardRef{
			File:     shardFileName(meta.Generation, meta.Step, r, world),
			Rank:     r,
			Offset:   off,
			Length:   length,
			FileSize: shardFileSize(length),
		}
		// The barrier said this shard is durable; a stat mismatch here
		// means the world disagrees about the save (e.g. divergent blob
		// lengths) — refuse to commit a checkpoint that could not load.
		fi, err := os.Stat(filepath.Join(w.Dir, ref.File))
		if err != nil {
			return fmt.Errorf("ckpt: shard missing at commit: %w", err)
		}
		if fi.Size() != ref.FileSize {
			return fmt.Errorf("ckpt: shard %s is %d bytes at commit, want %d (divergent state blobs?)",
				ref.File, fi.Size(), ref.FileSize)
		}
		m.Shards[r] = ref
	}
	enc, err := encodeManifest(m)
	if err != nil {
		return err
	}
	if w.Fault != nil {
		if err := w.Fault.BeforeWrite(manifestFileName(meta.Generation, meta.Step)); err != nil {
			return fmt.Errorf("ckpt: manifest write fault: %w", err)
		}
	}
	if err := writeFileAtomic(w.Dir, manifestFileName(meta.Generation, meta.Step), enc); err != nil {
		return err
	}
	w.prune()
	return nil
}

// checkpointID orders checkpoints: by step, then generation (a retried
// step re-saved under a later generation supersedes the earlier save).
type checkpointID struct {
	step int64
	gen  int
}

func (a checkpointID) less(b checkpointID) bool {
	if a.step != b.step {
		return a.step < b.step
	}
	return a.gen < b.gen
}

// prune deletes committed checkpoints beyond the Keep newest, plus any
// shard or .tmp- leftovers older than the oldest kept checkpoint
// (abandoned saves whose manifest never landed). Best-effort: a failed
// unlink leaves garbage, never breaks a live checkpoint — manifests are
// removed before their shards, so a half-pruned checkpoint is simply
// invisible rather than torn.
func (w *Writer) prune() {
	keep := w.Keep
	if keep <= 0 {
		keep = 2
	}
	entries, err := os.ReadDir(w.Dir)
	if err != nil {
		return
	}
	var committed []checkpointID
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".manifest") && !strings.HasPrefix(name, tmpPrefix) {
			if g, s, ok := parseCheckpointName(name); ok {
				// Only manifests that actually validate count toward
				// Keep: a manifest corrupted at rest must not occupy a
				// retention slot and push the run's real fallback
				// checkpoint out of the window. (Manifests are small;
				// this is a cheap read, not a shard scan.)
				if m, err := readManifestFile(filepath.Join(w.Dir, name)); err != nil || validateManifest(m) != nil {
					continue
				}
				committed = append(committed, checkpointID{step: s, gen: g})
			}
		}
	}
	if len(committed) <= keep {
		return
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i].less(committed[j]) })
	oldestKept := committed[len(committed)-keep]
	// First pass: invalidate stale checkpoints by removing their
	// manifests, before touching any shard.
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".manifest") || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		if g, s, ok := parseCheckpointName(name); ok && (checkpointID{step: s, gen: g}).less(oldestKept) {
			_ = os.Remove(filepath.Join(w.Dir, name))
		}
	}
	// Second pass: with stale manifests gone, their shards and any
	// abandoned tmp leftovers can go too (re-removing a pass-1 manifest
	// is a harmless ENOENT).
	for _, e := range entries {
		g, s, ok := parseCheckpointName(e.Name())
		if ok && (checkpointID{step: s, gen: g}).less(oldestKept) {
			_ = os.Remove(filepath.Join(w.Dir, e.Name()))
		}
	}
	syncDir(w.Dir)
}
