// Package elastic adds fault tolerance and elasticity to data-parallel
// training — the top future direction named in the paper's Section 7
// discussion, where a single crashed rank otherwise deadlocks every
// collective in the job. It is a Go analogue of torchelastic, layered on
// the repository's existing rendezvous store:
//
//   - Rendezvous: workers register with a generation-numbered rendezvous
//     (store-backed, in-mem or TCP) and receive (rank, world, generation)
//     assignments. Generations are fenced with CompareAndSwap: any
//     worker may propose generation g+1, exactly one proposal wins, and
//     every worker observes the same sequence of membership changes.
//
//   - Failure detection: each worker maintains a heartbeat counter in
//     the store; every worker monitors every peer's counter and declares
//     a peer dead when its lease expires, then triggers a new rendezvous
//     round. Survivors blocked inside a collective on the dead rank are
//     freed by aborting the process group (comm.AbortGroup).
//
//   - World reconfiguration: on a membership change survivors tear down
//     their comm.ProcessGroup, re-rendezvous at the new generation,
//     rebuild the group (in-proc registry or NewTCPGroup), and run ONE
//     recovery sequence whatever the strategy: obtain the full training
//     state, rebind the replica to the new group, install the state.
//     The only strategy-dependent decision is where full state comes
//     from. Where every rank holds all of it (DDP), the member holding
//     the most progress broadcasts model, optimizer AND error-feedback
//     state, so training resumes from the last completed step — nothing
//     is lost beyond the in-flight iteration. Where it is sharded
//     (ZeRO-2/3) a dead rank's shards died with it, so every rank rolls
//     back to the newest committed checkpoint and re-shards it for the
//     new world.
//
//   - Agent: the elastic training loop. It drives a replica.Replica —
//     the seam both ddp and fsdp implement, built once per worker by
//     Config.Replica — and never names either package: it swaps in the
//     rebuilt ProcessGroup (Replica.Rebind) after each reconfiguration
//     and retries the interrupted step after recovery.
//
//   - Durable checkpointing (Config.Checkpoint, internal/ckpt): the
//     failure elastic recovery alone cannot survive is every worker
//     dying at once. With checkpointing enabled the agent persists
//     sharded state every N steps and, on a cold start with Resume, a
//     worker loads the newest committed checkpoint before its first
//     rendezvous and joins holding the restored step — recovered by the
//     same most-advanced-member election and SyncState broadcast that
//     recover a partial failure. ARCHITECTURE.md walks the full
//     timeline.
package elastic

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trace"
)

// Sentinel errors of the elastic control flow.
var (
	// ErrKilled is returned by Agent.Run after Kill — the simulated
	// hard crash used by tests and the ddptrain demo.
	ErrKilled = errors.New("elastic: worker killed")
	// ErrReconfigure may be returned by a StepFunc to force the agent
	// through a reconfiguration without proposing a new generation
	// itself — typically after waiting for a pending membership change
	// (see Agent.AwaitGenerationChange).
	ErrReconfigure = errors.New("elastic: reconfiguration requested")
	// errRetryRound is a recovery attempt's verdict that its round
	// collapsed but a later one can form: reconfigure proposes the next
	// generation once the attempt's span has closed, and tries again.
	errRetryRound = errors.New("elastic: round collapsed; retrying")
)

// Member is one worker's registration in a rendezvous round.
type Member struct {
	// ID is the worker's stable identity across generations.
	ID string
	// Step is the number of completed training steps whose state the
	// worker holds; the member with the highest Step is the state-sync
	// source after reconfiguration.
	Step int64
	// Host labels the machine the worker runs on (Config.Host). Every
	// sealed round therefore publishes the full rank→host layout, so
	// the builders can hand each regenerated process group a
	// comm.Topology and topology-aware collectives survive membership
	// changes. Empty for workers predating topology support.
	Host string `json:",omitempty"`
	// Sharded marks a member whose memory holds only a shard of the
	// state at Step (its replica reports HoldsFullState false), so it
	// cannot re-seed anyone. A worker that has not built its replica yet
	// — fresh, or cold-started from a checkpoint — always holds its
	// state whole. When the most advanced member is sharded the round
	// recovers from the newest committed checkpoint instead of from a
	// broadcast; being part of the sealed round, the flag makes that
	// choice a pure function of the shared assignment.
	Sharded bool `json:",omitempty"`
}

// Assignment is the outcome of a rendezvous round: this worker's rank
// in a world of the given size, fenced by a generation number.
type Assignment struct {
	Generation int
	Rank       int
	World      int
	// Members holds every participant, indexed by rank.
	Members []Member
}

// Hosts returns the per-rank host labels of the round's members — the
// layout the builders turn into a comm.Topology. It returns nil when
// any member did not publish a host (a mixed-version world must not
// guess at placement).
func (a *Assignment) Hosts() []string {
	hosts := make([]string, len(a.Members))
	for i, m := range a.Members {
		if m.Host == "" {
			return nil
		}
		hosts[i] = m.Host
	}
	return hosts
}

// Source returns the rank that should broadcast state after this
// round — the member with the most completed steps (ties break to the
// lowest rank) — and that member's step count. Every rank computes the
// same answer from the shared assignment.
func (a *Assignment) Source() (rank int, step int64) {
	best := 0
	for i, m := range a.Members {
		if m.Step > a.Members[best].Step {
			best = i
		}
	}
	return best, a.Members[best].Step
}

func (m Member) encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("elastic: encoding member: %v", err))
	}
	return b
}

func decodeMember(b []byte) (Member, error) {
	var m Member
	if err := json.Unmarshal(b, &m); err != nil {
		return Member{}, fmt.Errorf("elastic: decoding member: %w", err)
	}
	return m, nil
}

// GroupBuilder constructs the communication backend for an assignment.
// Implementations must produce a group whose Rank/Size match the
// assignment; the name they derive from the generation keeps meshes of
// different generations from crossing wires.
//
// cancel may be nil; when non-nil, closing it obliges the builder to
// unwind a blocked construction promptly and return an error (TCP
// builds otherwise stall until the store timeout when a peer dies
// between rendezvous seal and mesh build). The agent closes it on Kill
// and whenever the generation moves past the round being built.
type GroupBuilder interface {
	Build(a *Assignment, cancel <-chan struct{}) (comm.ProcessGroup, error)
}

// InProcBuilder builds goroutine-rank groups through a shared
// comm.InProcRegistry — the deterministic fixture tests and the
// --elastic demo use.
type InProcBuilder struct {
	Registry *comm.InProcRegistry
	// Prefix namespaces group names; defaults to "elastic".
	Prefix string
}

// Build claims this rank's member of the generation's group. In-proc
// construction never blocks, so cancel is ignored.
func (b *InProcBuilder) Build(a *Assignment, _ <-chan struct{}) (comm.ProcessGroup, error) {
	prefix := b.Prefix
	if prefix == "" {
		prefix = "elastic"
	}
	return b.Registry.Build(fmt.Sprintf("%s-g%d", prefix, a.Generation), a.Rank, a.World, topologyOptions(comm.Options{}, a))
}

// topologyOptions threads the rendezvous round's host layout into the
// group options so every regenerated group stays topology-aware: ranks
// are assigned per round, so the rank→host map must be rebuilt from
// the round's members each time. An explicitly configured topology
// wins (tests lay out simulated hosts that way) — but only while it
// still covers the round's world: after a membership change an
// explicit layout for the old world is stale, and keeping it would
// make every Hierarchical collective fail on the size mismatch
// forever. A stale layout is dropped in favour of the round's member
// hosts (or, failing that, no topology — algorithms degrade to Ring).
func topologyOptions(opts comm.Options, a *Assignment) comm.Options {
	if opts.Topology != nil && opts.Topology.Size() != a.World {
		opts.Topology = nil
	}
	if opts.Topology == nil {
		if hosts := a.Hosts(); hosts != nil {
			opts.Topology = comm.NewTopology(hosts)
		}
	}
	return opts
}

// TCPBuilder builds one TCP-mesh group per generation, rendezvousing
// addresses through the same store used by the elastic rendezvous.
type TCPBuilder struct {
	Store store.Store
}

// Build constructs this process's member of the generation's TCP group.
// Closing cancel aborts an in-flight mesh build (rendezvous Get, dial,
// accept) immediately, releasing the listener and the round's store
// keys — the path that frees survivors when a peer dies between seal
// and build.
func (b *TCPBuilder) Build(a *Assignment, cancel <-chan struct{}) (comm.ProcessGroup, error) {
	return comm.NewTCPGroupCancel(a.Rank, a.World, b.Store, fmt.Sprintf("elastic-g%d", a.Generation), topologyOptions(comm.Options{}, a), cancel)
}

// Config parameterizes an elastic worker.
type Config struct {
	// Store is the shared rendezvous store (in-mem or TCP client).
	Store store.Store
	// ID is this worker's stable identity. Required and unique.
	ID string
	// Host labels the machine this worker runs on; it is published
	// with every rendezvous registration so regenerated process groups
	// can rebuild their comm.Topology from the round. Defaults to
	// os.Hostname() (all workers of a single-machine job then share
	// one host and topology-aware algorithms correctly degrade to the
	// flat ring). Tests and simulations set distinct labels to model
	// multi-host layouts in one process.
	Host string
	// Prefix namespaces all elastic keys in the store ("elastic").
	Prefix string
	// MinWorld is the smallest world size a rendezvous round may seal
	// with (default 1).
	MinWorld int
	// MaxWorld caps the world size (default MinWorld).
	MaxWorld int
	// Grace is how long the round leader holds the door open for
	// stragglers once MinWorld is reached (default 0: seal immediately).
	Grace time.Duration
	// HeartbeatInterval is the liveness publication period (100ms).
	HeartbeatInterval time.Duration
	// LeaseTimeout is how long a peer may go without a heartbeat before
	// it is declared dead (default 10x HeartbeatInterval).
	LeaseTimeout time.Duration
	// PollInterval paces rendezvous and monitor polling (default
	// HeartbeatInterval/4, at least 1ms).
	PollInterval time.Duration
	// RoundTimeout bounds one rendezvous round before the worker forces
	// a new generation (default 30s).
	RoundTimeout time.Duration
	// DrainTimeout is how long a generation change lets an in-flight
	// step drain before the process group is aborted, and a sharded
	// world's newest save commit before it is abandoned (default 500ms).
	// A step whose collectives every participant already submitted
	// completes within this window — e.g. the final step a cleanly
	// departing peer took part in — and so does the save of a step every
	// member finished, which is the only state a sharded world can
	// resume from; so completed work is never rolled back by the
	// membership change. Collectives genuinely stuck on a vanished peer,
	// and saves waiting for its shard, are still freed once the window
	// closes.
	DrainTimeout time.Duration
	// MaxRestarts caps consecutive reconfigurations without a completed
	// step before the agent gives up (default 10).
	MaxRestarts int
	// Builder constructs process groups per generation. Required.
	Builder GroupBuilder
	// Replica builds this worker's data-parallel replica over its first
	// process group — the one place a job chooses its strategy (ddp,
	// zero2, zero3) and its optimizer. Required. It is called once, after
	// the agent has put the world's agreed full state into the model's
	// tensors, so the constructor's own rank-0 broadcast must be skipped
	// (SkipInitialBroadcast): the elected source need not be rank 0, and
	// ranks that merely rebind submit no collectives to pair with it.
	// Later generations reuse the replica through Rebind.
	//
	// A replica whose HoldsFullState is false changes recovery, not the
	// loop: every membership change rolls back to the newest committed
	// checkpoint and re-shards it for the new world. Configure
	// Checkpoint (all workers sharing one directory) for any such run
	// that must survive membership changes; without it only the initial
	// world formation works.
	Replica func(model nn.Module, pg comm.ProcessGroup) (replica.Replica, error)
	// Checkpoint enables durable sharded checkpointing (nil: disabled).
	// With it, the run survives even the failure mode elastic recovery
	// alone cannot: every worker dying at once.
	Checkpoint *CheckpointConfig
	// Tracer, when non-nil, records one hierarchical span tree per
	// reconfiguration attempt (teardown → rendezvous → mesh-build →
	// state-sync → rebind → install); dump with trace.Tracer.WriteJSON.
	Tracer *trace.Tracer
	// Straggler enables median-gossip straggler detection (nil:
	// disabled). See StragglerConfig.
	Straggler *StragglerConfig
	// Clock is the time source behind heartbeats, lease tracking,
	// rendezvous deadlines, and the pre-abort drain window (default
	// SystemClock). Deterministic tests inject a fake clock here to
	// step lease expiry and round timeouts explicitly.
	Clock Clock
}

// CheckpointConfig wires the ckpt subsystem into an elastic worker:
// periodic sharded saves during training, and cold-start restore at
// Run startup. All workers of a job must use the same directory
// (resolving to shared storage, or one host) and the same Every.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; required.
	Dir string
	// Every saves a checkpoint after each step count divisible by it
	// (0: never save — restore-only).
	Every int64
	// Async persists checkpoints on a background goroutine, leaving
	// only the state capture (a memcpy) on the training hot path.
	Async bool
	// Keep is how many committed checkpoints to retain (ckpt.Writer's
	// default when 0).
	Keep int
	// Resume probes Dir at startup: if a committed checkpoint exists,
	// the worker restores it — model, optimizer, and step — before its
	// first rendezvous, and joins as a candidate state-sync source at
	// the restored step, exactly like a most-advanced survivor. Torn or
	// corrupt newest checkpoints fall back to the previous committed
	// one; a directory with only corrupt checkpoints is a loud error,
	// never a silent restart from step 0.
	Resume bool
	// Seed is recorded verbatim in each checkpoint's Meta and handed
	// back through Agent.RestoredCheckpoint after a cold-start restore.
	// The agent itself never interprets it: a StepFunc whose data
	// schedule depends on a run-level seed reads it from there.
	Seed int64
	// Fault, when non-nil, intercepts every checkpoint file write —
	// the fault-injection shim the chaos harness uses to model slow and
	// failing checkpoint disks (see ckpt.FaultHook). Nil in production.
	Fault ckpt.FaultHook
}

// withDefaults fills zero-valued knobs. Only Store is universally
// required; the Agent additionally validates ID and Builder.
func (c Config) withDefaults() (Config, error) {
	if c.Store == nil {
		return c, errors.New("elastic: Config.Store is required")
	}
	if c.Prefix == "" {
		c.Prefix = "elastic"
	}
	if c.Host == "" {
		if hn, err := os.Hostname(); err == nil && hn != "" {
			c.Host = hn
		} else {
			c.Host = "localhost"
		}
	}
	if c.MinWorld <= 0 {
		c.MinWorld = 1
	}
	if c.MaxWorld < c.MinWorld {
		c.MaxWorld = c.MinWorld
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 10 * c.HeartbeatInterval
	}
	if c.PollInterval <= 0 {
		c.PollInterval = c.HeartbeatInterval / 4
		if c.PollInterval < time.Millisecond {
			c.PollInterval = time.Millisecond
		}
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 500 * time.Millisecond
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 10
	}
	if c.Clock == nil {
		c.Clock = SystemClock
	}
	return c, nil
}
