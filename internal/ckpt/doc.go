// Package ckpt is the durable checkpoint subsystem: it persists full
// training state — model parameters and buffers (nn.SaveState), the
// replica's state beyond them (a replica.State, every field of it:
// the flat momentum vector and the codec's error-feedback residuals),
// and progress (step, generation, seed) — to disk in parallel shards,
// and restores it on a cold start. It closes the gap the elastic layer
// alone cannot: elastic recovery keeps a run alive as long as one
// worker survives, but when every worker dies at once, only state that
// reached disk survives.
// Together the two subsystems cover the full failure matrix (see the
// root package doc and ARCHITECTURE.md).
//
// # State model
//
// Capture serializes the complete training state into one byte blob
// (a Snapshot), and every rank produces a byte-identical one. DDP's
// core invariant makes parameters, buffers and optimizer state
// bit-identical on every rank; residuals are per-rank, so the caller
// hands every rank rank 0's before Capture (elastic broadcasts them at
// the save point), and every rank adopts those on restore, as after a
// state sync. The blob can therefore be split into contiguous per-rank
// shards (ShardRange) with no further communication: rank r persists
// bytes [off_r, off_r+len_r) of a blob it computed locally, so
// checkpoint wall-clock cost scales down with world size instead of
// serializing through a single writer.
//
// # On-disk format (FormatVersion 2)
//
// A checkpoint at step S under elastic generation G in a world of W is:
//
//	<dir>/g<G>-s<S>-r<R>of<W>.shard   one per rank R   (written first, in parallel)
//	<dir>/g<G>-s<S>.manifest          commit record    (written last, by rank 0)
//
// Shard files are a fixed 52-byte little-endian header — magic (8),
// format version (4), generation (8), step (8), world (4), rank (4),
// blob offset (8), payload length (8) — then the payload, then a
// CRC32-IEEE trailer over everything before it. Manifests are a framed JSON record (magic, length, JSON, CRC32)
// listing every shard's file name, byte range, and exact file size.
// Both carry the format version, and readers refuse any other version
// by name: a version 1 blob holds no residuals, and restoring it would
// resume a codec run with zeroed error feedback.
//
// Every file is published with the same durability protocol: write to
// <dir>/.tmp-<name>, fsync, rename to the final name, fsync the
// directory. Readers ignore .tmp- files, so a file either exists
// completely or not at all.
//
// # Commit protocol
//
// A checkpoint is committed if and only if its manifest is present and
// checksum-valid. Ranks write shards in parallel; a StoreCommitter then
// provides the commit barrier — rank 0 publishes the manifest only
// after every rank has reported its shard durable, counted by an
// arrival counter in the rendezvous store. The barrier stays off the
// collective data plane, so a save running asynchronously cannot
// disturb the collectives' submission order. A crash at any
// point before the manifest rename leaves only ignorable debris:
// .tmp- files and orphan shards that no manifest references and that
// retention later sweeps.
//
// # Restore and re-sharding
//
// Load scans the directory for committed manifests, newest first by
// (step, generation), and fully validates each candidate — manifest
// CRC, shard coverage of exactly [0, BlobBytes), per-shard header
// consistency, size, and payload CRC — falling back to the next-newest
// checkpoint when one is torn or corrupt. Because the manifest records
// every shard's byte range, a reader of any world size reassembles the
// same blob: restoring 3-way-sharded state into a world of 2 (or 5, or
// 1) is the ordinary path, not a special case. Writer.Keep (default 2)
// retains a fallback checkpoint so corruption at rest never strands a
// run with nothing loadable.
//
// # Asynchronous checkpointing
//
// AsyncWriter moves everything but the tensor copy off the training hot
// path: Capture (a memcpy of the state) runs between steps, and a
// background goroutine does the serialization barrier, fsync, and
// commit. Saves are abandoned (ErrAbandoned) rather than stuck when a
// membership change means a shard will never arrive; the elastic agent
// wires its generation watcher into the save's cancel channel for
// exactly that.
//
// The elastic agent (elastic.Config.Checkpoint) saves every N steps and
// probes/restores on cold start; `ddptrain -ckpt-dir -ckpt-every
// -resume` and examples/checkpoint exercise the subsystem end to end.
package ckpt
