// Package chaos is a seeded, deterministic failure-schedule fuzzer for
// the elastic training stack. It runs real in-process clusters — shared
// store, in-proc process groups, elastic.Agent, ddp or fsdp replicas
// behind internal/replica — under generated
// schedules of fault events, then checks system-wide invariants that
// the hand-written recovery tests only pin individually.
//
// # Schedules
//
// A Schedule is a replayable scenario: initial world size, step count,
// gradient codec, sharding strategy, checkpoint cadence, and a list of
// Events. A non-empty Strategy ("zero2" or "zero3") makes the one
// replica factory (engine.newReplica) build internal/fsdp instead of
// ddp — nothing else in the engine changes: checkpoint cadence is forced to every
// step so each rollback restores exactly the live state (a sharded
// world cannot re-form after churn without a committed checkpoint —
// a lost rank's shards are unrecoverable), and under ZeRO-3 a
// kill-mid-step fires inside the forward gather phase. Each Event
// names a kind (kill, kill-mid-step, hang, partition, leave, join,
// kill-all, disk-fault, slow-disk, straggle), a target worker ordinal,
// and the global step it fires at. Schedules serialize to JSON;
// Generate draws one from a rand.Rand so a seed reproduces the run,
// and FromBytes decodes arbitrary fuzzer bytes into a valid schedule.
//
// # Invariants
//
// After a schedule runs, Run checks: exit codes match the schedule
// (killed workers return ErrKilled, leavers nil, disk-fault victims a
// checkpoint error); the store's generation history is a single linear
// CAS chain; every completed step was executed at exactly one world
// size, matching the world trajectory predicted from the schedule; no
// committed checkpoint step is lost across a kill-all restart; all
// survivors agree bitwise on model, optimizer, and error-feedback
// residual state, and agree with a failure-free reference replay of
// the same membership lineage; every recovery span is exactly tiled by
// its phases; and a viable synthetic straggler is flagged by the
// detector (an unflagged straggler is itself a violation).
//
// # Shrinking and replay
//
// Shrink reduces a failing schedule — dropping events, then shrinking
// steps, counts, and delays — while preserving the original violated
// invariant, and the minimal reproducer's JSON replays verbatim
// through Replay. testdata/corpus holds known-interesting schedules
// re-executed by the corpus test; FuzzElasticSchedule feeds go fuzz
// mutations through FromBytes into the same engine.
package chaos
