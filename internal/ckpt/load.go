package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/optim"
)

// ErrNoCheckpoint is returned by Load and Restore when the directory
// holds no committed checkpoint at all — the cold-start-from-scratch
// case. It is distinct from the loud failure when committed checkpoints
// exist but every one of them is corrupt (which never silently restarts
// a run from zero).
var ErrNoCheckpoint = errors.New("ckpt: no committed checkpoint")

// Load reassembles the newest committed checkpoint in dir. Candidates
// are ordered by (step, generation) descending; a candidate whose
// manifest or any referenced shard fails validation (torn commit,
// truncation, CRC mismatch, missing file) is skipped, falling back to
// the next-newest committed checkpoint. Uncommitted saves — .tmp- files
// and shards with no manifest — are never considered.
//
// Load returns ErrNoCheckpoint when dir has no manifests (or does not
// exist), and a loud error describing the newest candidate's defect
// when manifests exist but none validates.
//
// Load is safe against a concurrent retention sweep: if every listed
// candidate fails because the sweep pruned the (stale) listing while
// newer checkpoints were committing, Load re-lists and walks again
// instead of declaring the run unloadable.
func Load(dir string) (*Snapshot, *Manifest, error) {
	var snap *Snapshot
	var m *Manifest
	err := newestCommitted(dir, "loadable", func(name string) error {
		s, mf, err := loadOne(dir, name)
		if err == nil {
			snap, m = s, mf
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return snap, m, nil
}

// loadAttempts bounds how many directory listings newestCommitted
// walks before concluding the candidates are corrupt rather than
// concurrently pruned. A retry only happens while a writer is actively
// committing (the listing keeps changing), so the bound exists to
// guarantee termination, not as a tuning knob.
const loadAttempts = 8

// newestCommitted walks committed manifests newest-first, calling try
// on each until one succeeds. When every candidate fails AND the
// directory changed under the walk — a Keep-retention sweep deleting
// the stale listing's checkpoints as newer commits land — it re-lists
// and walks again: a reader racing the sweep must land on one of the
// newer checkpoints, never report the run unloadable. The loud
// all-candidates-failed error is reserved for a stable listing, where
// the failures are genuine corruption.
func newestCommitted(dir, what string, try func(name string) error) error {
	var walked []string
	for attempt := 0; ; attempt++ {
		names, err := manifestNames(dir)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return ErrNoCheckpoint
		}
		var firstErr error
		for _, name := range names {
			if err := try(name); err == nil {
				return nil
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if attempt+1 >= loadAttempts || slices.Equal(names, walked) {
			return fmt.Errorf("ckpt: %d committed checkpoint(s) in %s, none %s: %w", len(names), dir, what, firstErr)
		}
		walked = names
	}
}

// Restore loads the newest committed checkpoint in dir into model and
// opt and returns its captured progress. See Load for the fallback and
// error contract.
func Restore(dir string, model nn.Module, opt optim.StateFlattener) (Meta, error) {
	start := time.Now()
	snap, m, err := Load(dir)
	if err != nil {
		return Meta{}, err
	}
	meta, err := snap.Apply(model, opt)
	if err == nil {
		mRestoreDur.Observe(time.Since(start).Seconds())
		mRestoreBytes.Set(float64(m.BlobBytes))
	}
	return meta, err
}

// LatestMeta reports the progress of the newest committed checkpoint
// without reassembling it — the probe a supervisor or cold-starting
// worker uses to decide whether a resume is possible. It validates
// cheaply (manifest frame CRC and consistency, shard presence and
// exact size) but does not read shard payloads, so a checkpoint whose
// payload is corrupt at rest can pass the probe and still be rejected
// — with fallback — by the full validation in Load.
func LatestMeta(dir string) (Meta, error) {
	var meta Meta
	err := newestCommitted(dir, "probes valid", func(name string) error {
		m, err := readManifestFile(filepath.Join(dir, name))
		if err == nil {
			if verr := validateManifest(m); verr != nil {
				err = fmt.Errorf("ckpt: %s: %w", name, verr)
			} else {
				err = statShards(dir, m)
			}
		}
		if err == nil {
			meta = m.Meta
		}
		return err
	})
	return meta, err
}

// statShards confirms every shard the manifest references exists with
// its exact expected size — truncation and absence detection without
// reading a byte of payload.
func statShards(dir string, m *Manifest) error {
	for _, ref := range m.Shards {
		fi, err := os.Stat(filepath.Join(dir, ref.File))
		if err != nil {
			return fmt.Errorf("ckpt: shard missing: %w", err)
		}
		if fi.Size() != ref.FileSize {
			return fmt.Errorf("ckpt: shard %s is %d bytes, want %d", ref.File, fi.Size(), ref.FileSize)
		}
	}
	return nil
}

// manifestNames lists committed manifests in dir, newest first by
// (step, generation) parsed from the file name. A missing directory is
// an empty listing, not an error: a fresh cluster resuming into an
// empty volume is a cold start, not a failure.
func manifestNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: reading checkpoint dir: %w", err)
	}
	type cand struct {
		name string
		id   checkpointID
	}
	var cands []cand
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".manifest") || strings.HasPrefix(name, tmpPrefix) {
			continue
		}
		if g, s, ok := parseCheckpointName(name); ok {
			cands = append(cands, cand{name: name, id: checkpointID{step: s, gen: g}})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[j].id.less(cands[i].id) })
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.name
	}
	return names, nil
}

// loadOne validates and reassembles the checkpoint committed by the
// named manifest: manifest frame CRC, shard coverage of exactly
// [0, BlobBytes), and every shard's header consistency and payload CRC.
func loadOne(dir, manifestName string) (*Snapshot, *Manifest, error) {
	m, err := readManifestFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, err
	}
	if err := validateManifest(m); err != nil {
		return nil, nil, fmt.Errorf("ckpt: %s: %w", manifestName, err)
	}
	blob := make([]byte, m.BlobBytes)
	for _, ref := range m.Shards {
		h, payload, err := readShardFile(filepath.Join(dir, ref.File))
		if err != nil {
			return nil, nil, err
		}
		if int64(h.Offset) != ref.Offset || int64(h.Length) != ref.Length ||
			int(h.World) != m.World || h.Step != m.Meta.Step || int(h.Generation) != m.Meta.Generation {
			return nil, nil, fmt.Errorf("ckpt: shard %s header disagrees with manifest %s", ref.File, manifestName)
		}
		copy(blob[ref.Offset:ref.Offset+ref.Length], payload)
	}
	snap, err := decodeSnapshot(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %s: %w", manifestName, err)
	}
	if snap.Meta != m.Meta {
		return nil, nil, fmt.Errorf("ckpt: %s: blob meta %+v disagrees with manifest meta %+v", manifestName, snap.Meta, m.Meta)
	}
	return snap, m, nil
}

// validateManifest checks the manifest's internal consistency: shards
// ordered by rank and covering the blob exactly, without gaps or
// overlap.
func validateManifest(m *Manifest) error {
	if len(m.Shards) != m.World {
		return fmt.Errorf("manifest has %d shards for world %d", len(m.Shards), m.World)
	}
	var next int64
	for i, ref := range m.Shards {
		if ref.Rank != i {
			return fmt.Errorf("shard %d records rank %d", i, ref.Rank)
		}
		if ref.Offset != next {
			return fmt.Errorf("shard %d starts at %d, want %d (gap or overlap)", i, ref.Offset, next)
		}
		if ref.Length < 0 || ref.FileSize != shardFileSize(ref.Length) {
			return fmt.Errorf("shard %d has inconsistent sizes (len %d, file %d)", i, ref.Length, ref.FileSize)
		}
		next += ref.Length
	}
	if next != m.BlobBytes {
		return fmt.Errorf("shards cover %d bytes, blob is %d", next, m.BlobBytes)
	}
	return nil
}
