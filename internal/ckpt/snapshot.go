package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Meta is the training progress a checkpoint captures alongside the
// tensors: where the run was, under which membership, and the seed that
// reproduces its data schedule.
type Meta struct {
	// Step is the number of completed training steps the state
	// reflects (the state is the post-optimizer-update state of step
	// Step-1; the next step to execute is Step).
	Step int64 `json:"step"`
	// Generation is the elastic generation the checkpoint was taken
	// under (0 for non-elastic runs).
	Generation int `json:"generation"`
	// World is the world size at capture time. Restore does not require
	// the restoring world to match — shards reassemble into the full
	// replicated state regardless.
	World int `json:"world"`
	// Seed is the run's base RNG seed, recorded verbatim for the
	// caller: a resumed run whose data schedule depends on it reads it
	// back (elastic exposes it via Agent.RestoredCheckpoint) — the
	// checkpoint layer itself never interprets it.
	Seed int64 `json:"seed"`
}

// image is the gob-encoded content of the state blob. Every rank holds
// bit-identical state (DDP's invariant), encodes the same values with
// the same encoder layout, and therefore produces byte-identical blobs
// — which is what lets each rank persist only its slice of the blob.
type image struct {
	Meta Meta
	// Model is the nn.SaveState encoding of parameters and buffers,
	// carrying its own format-version header.
	Model []byte
	// Opt is the optimizer's flattened state (nil when captured without
	// an optimizer).
	Opt []float32
}

// Snapshot is an immutable byte image of full training state, taken
// synchronously on the training path and safe to persist from a
// background goroutine afterwards: Capture deep-copies every tensor, so
// subsequent optimizer updates cannot tear the image.
type Snapshot struct {
	// Meta duplicates the blob's embedded progress record for cheap
	// access (choosing file names, logging) without decoding the blob.
	Meta Meta
	blob []byte
}

// Capture serializes the full training state — model parameters and
// buffers (via nn.SaveState), optimizer state (opt's flattened vector;
// opt may be nil), and meta — into a Snapshot.
func Capture(model nn.Module, opt optim.StateFlattener, meta Meta) (*Snapshot, error) {
	var modelBuf bytes.Buffer
	if err := nn.SaveState(&modelBuf, model); err != nil {
		return nil, fmt.Errorf("ckpt: capturing model state: %w", err)
	}
	img := image{Meta: meta, Model: modelBuf.Bytes()}
	if opt != nil {
		img.Opt = opt.FlatState()
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&img); err != nil {
		return nil, fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	return &Snapshot{Meta: meta, blob: blob.Bytes()}, nil
}

// Bytes returns the snapshot's state blob. The caller must not mutate
// it.
func (s *Snapshot) Bytes() []byte { return s.blob }

// decodeSnapshot parses a reassembled state blob.
func decodeSnapshot(blob []byte) (*Snapshot, error) {
	var img image
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&img); err != nil {
		return nil, fmt.Errorf("ckpt: decoding snapshot: %w", err)
	}
	return &Snapshot{Meta: img.Meta, blob: blob}, nil
}

// Apply restores the snapshot's state into model and opt (nil: model
// only; a *replica.State: the detached vector, for when the optimizer
// that will hold it does not exist yet) — bitwise: a
// restored replica is indistinguishable from one that never crashed —
// and returns the captured progress. The model must have the
// architecture the checkpoint was taken from; mismatches are reported
// by parameter name with both shapes.
func (s *Snapshot) Apply(model nn.Module, opt optim.StateFlattener) (Meta, error) {
	var img image
	if err := gob.NewDecoder(bytes.NewReader(s.blob)).Decode(&img); err != nil {
		return Meta{}, fmt.Errorf("ckpt: decoding snapshot: %w", err)
	}
	if err := nn.LoadState(bytes.NewReader(img.Model), model); err != nil {
		return Meta{}, fmt.Errorf("ckpt: restoring model state: %w", err)
	}
	if opt != nil && img.Opt != nil {
		if err := opt.SetFlatState(img.Opt); err != nil {
			return Meta{}, fmt.Errorf("ckpt: restoring optimizer state: %w", err)
		}
	}
	return img.Meta, nil
}

// ShardRange returns the byte range [offset, offset+length) of the
// state blob that rank persists in a world of the given size: a
// contiguous split as even as possible, with the remainder spread over
// the lowest ranks. Pure function — every rank computes every rank's
// range, and readers of any world size recompute the saved layout from
// the manifest alone.
func ShardRange(blobLen int64, rank, world int) (offset, length int64) {
	if world <= 0 {
		panic(fmt.Sprintf("ckpt: invalid world %d", world))
	}
	base := blobLen / int64(world)
	rem := blobLen % int64(world)
	r := int64(rank)
	offset = base*r + min(r, rem)
	length = base
	if r < rem {
		length++
	}
	return offset, length
}
