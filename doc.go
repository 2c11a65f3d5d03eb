// Package repro is a pure-Go reproduction of "PyTorch Distributed:
// Experiences on Accelerating Data Parallel Training" (Li et al.,
// VLDB 2020), grown past the paper's published evaluation into a
// fault-tolerant, durably-checkpointed distributed training system.
// It is organized as three cooperating subsystems on one substrate.
//
// # Subsystem 1: the DDP core (the paper's contribution)
//
// internal/ddp implements DistributedDataParallel with the paper's
// optimizations: gradient bucketing (Section 3.2.3), communication/
// computation overlap via autograd hooks, no_sync accumulation, and
// unused-parameter detection. It sits on a from-scratch stack:
// internal/tensor and internal/autograd (the compute substrate),
// internal/nn and internal/optim (modules and optimizers, including
// state serialization — nn.SaveState/LoadState with a versioned
// header, and optim.StateFlattener for momentum/Adam state as a flat
// vector), internal/comm (the c10d-style collective layer: ProcessGroup
// with async Work handles, ring/tree/naive AllReduce plus the
// topology-aware Hierarchical algorithm — intra-host reduce, inter-host
// ring among per-host leaders, intra-host broadcast — and Auto, which
// picks per collective from message size and the rank→host Topology,
// plus round-robin composite groups), internal/transport
// (point-to-point meshes: in-process channels and a zero-copy TCP wire,
// with sub-mesh views for hierarchy phases and host discovery from peer
// addresses), and internal/store (the rendezvous key-value store:
// in-mem and TCP, with Watch, CompareAndSwap, and cancellable Get).
// internal/hw prices flat and hierarchical collectives on the paper's
// testbed model; internal/bench and internal/simnet regenerate the
// paper's figures and the flat-vs-hierarchical ablation.
//
// # Subsystem 2: elastic fault tolerance (internal/elastic)
//
// The paper's Section 7 future direction. Workers register with a
// generation-numbered rendezvous; generations advance only through a
// CompareAndSwap fence, so concurrent failure detections produce one
// linear history of membership changes. Heartbeat counters with lease
// timeouts detect death; survivors blocked in collectives on a dead
// rank are freed by aborting the process group (comm.AbortGroup,
// transport.Aborter). After each round the member with the most
// completed steps broadcasts model + optimizer state (SyncState), and
// elastic.Agent rebinds its replica — DDP or FSDP behind the one
// internal/replica interface — to the rebuilt group and retries the
// interrupted step. The whole fault path works across real OS
// processes over TCP (`ddptrain -elastic -launch`).
//
// # Subsystem 3: durable checkpointing (internal/ckpt)
//
// Elastic recovery requires a survivor; checkpointing covers the rest.
// Every rank persists its shard of a byte-identical state blob in
// parallel (CRC-checked, versioned, atomic rename-on-commit), rank 0
// commits a manifest only after a barrier confirms every shard is
// durable, and an async writer keeps everything but a state memcpy off
// the training hot path. On cold start the agent restores the newest
// committed checkpoint — torn commits are rejected, corruption falls
// back to the previous checkpoint, and re-sharding across differing
// world sizes is the ordinary read path — then joins the rendezvous
// holding the restored step, so the existing most-advanced-member
// election distributes the state. See the internal/ckpt package doc
// for the format and protocol.
//
// # Package dependency graph
//
// Arrows point at dependencies; each subsystem touches only the layers
// beneath it:
//
//	elastic ──▶ ckpt ──▶ nn, optim
//	   │          │
//	   │          └────▶ comm, store
//	   ├────────▶ replica ◀── ddp, fsdp ─▶ nn, autograd, comm
//	   └────────▶ comm ─▶ transport ─▶ store
//	                         (tensor under everything)
//
// # Recovery matrix
//
// Which mechanism recovers which failure:
//
//	single rank crashes        → elastic resync: lease expiry, generation
//	                             CAS, group abort, re-rendezvous, state
//	                             sync from the most advanced survivor;
//	                             only the in-flight iteration is retried
//	single rank hangs silently → same path, entered via lease expiry
//	                             rather than broken connections
//	workers added/removed      → same path, minus the crash: clean
//	                             leaves and joins bump the generation at
//	                             iteration boundaries
//	ALL ranks crash            → ckpt restore: a cold-started world
//	                             loads the newest committed checkpoint
//	                             and resumes from its step
//	checkpoint torn/corrupted  → ckpt validation: torn commits are
//	                             invisible (no manifest), corruption is
//	                             caught by CRC and falls back to the
//	                             previous committed checkpoint
//
// ARCHITECTURE.md walks one full failure/recovery timeline with
// pointers into the code. The benchmarks in bench_test.go regenerate
// each of the paper's tables and figures, and cmd/ddpbench prints them
// as full tables.
package repro
