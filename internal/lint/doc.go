// Package lint is the project's static-analysis gate: nine analyzers
// encoding invariants that ordinary vet checks cannot see because they
// are about THIS codebase's contracts — store error discipline,
// collective/lock ordering, metric registration, 32-bit atomic
// alignment, cost models that price the schedules the runtime runs,
// comm's one transport call site, the one replica constructor, the one
// file that broadcasts a module's tensors, and ddptrain's one spawn
// site. Span lifecycles need no analyzer: trace.Tracer.WithSpan,
// the only way to open a root span, finishes it by construction. The
// driver (cmd/ddplint) loads every package in the module with the pure
// go/types stack (no external dependencies: go/parser for syntax,
// go/types with the source importer for semantics), runs the analyzers,
// and exits non-zero on any finding, which makes the gate blocking in
// CI.
//
// # Suppressing a finding
//
// An intentional exception carries a pragma on the offending line or
// the line above:
//
//	//ddplint:ignore <analyzer> <reason>
//
// The reason is mandatory — a pragma without one is itself reported —
// and suppressed findings are counted in the driver's summary line, so
// exceptions stay visible instead of silently accumulating. The
// internal/lint tests additionally fail when the tree has zero
// suppressed findings, which catches pragmas that outlive the code
// they excused.
//
// # The analyzers
//
// storeerr — rendezvous-store, transport, and checkpoint errors must
// be checked. Calls to store.Store methods, transport send/recv/abort,
// and checkpoint commit/close paths return errors that encode the
// difference between "the cluster agreed" and "this worker is
// partitioned"; dropping one turns a detectable failure into silent
// divergence. The analyzer flags calls whose error is discarded (as an
// expression statement, a blank assignment, or a go/defer statement)
// and files opened for writing whose Close error is dropped — for
// write-path files, Close is where the kernel reports a failed flush,
// so `defer f.Close()` on a written file loses real errors. Deliberate
// best-effort sites (heartbeats, GC of superseded rendezvous rounds)
// carry pragmas stating why loss is tolerable.
//
// metricstatic — metrics are registered at package init, not per call.
// Registry constructor methods (Counter, CounterVec, Gauge, GaugeVec,
// Histogram, HistogramVec) may appear only in package-level variable
// initializers or init functions. Registration takes the registry
// lock, re-validates the schema, and interns label metadata; doing it
// on a hot path (inside a collective, per step) adds contention
// exactly where the code is supposed to be measuring it, and a
// schema-conflicting re-registration panics at runtime. The
// internal/metrics package itself is exempt (it implements the
// constructors).
//
// lockedcollective — never block on a collective while holding a
// mutex. Group.AllReduce, Broadcast, AllGather, Barrier and
// CompressedAllReduce block until every rank arrives. If rank A holds
// a lock while waiting and rank B needs that lock before it can reach
// the same collective, the whole job deadlocks — a distributed
// lock-ordering inversion that no single-process race detector can
// see. The analyzer tracks sync.Mutex/RWMutex Lock/Unlock (including
// deferred unlocks) within each function and flags collective calls
// issued while any lock is held. The internal/comm package is exempt
// (the implementation synchronizes its own internals).
//
// atomic64align — 64-bit atomics are the typed atomic.Int64 and
// atomic.Uint64. On GOARCH=386 (and other 32-bit targets), sync/atomic's
// 64-bit functions fault at runtime when their operand is not 8-byte
// aligned, and a struct field after a 4-byte field is exactly where that
// happens. The typed forms carry an alignment marker the compiler
// honours on every GOARCH, so the analyzer bans the ten function forms
// (Add, Load, Store, Swap and CompareAndSwap of Int64 and Uint64),
// called or taken as values, and needs no layout arithmetic to give the
// same guarantee. CI's GOARCH=386 build smoke keeps the tree compiling
// for the targets where the ban matters.
//
// costtwins — the cost models price what the runtime describes, with
// no closed form of their own. internal/hw prices comm's algorithms by
// walking the step lists comm runs, so a method of an hw type named
// after an algorithm (hierarchical, doubletree, nlevel, tree), declared
// or promoted from an embedded field, is a hand-written twin growing
// back. internal/simnet walks the step replica.Schedule lists, so a
// constant there whose value spells a sharded preset ("zero2",
// "zero3" — a literal, a concatenation or another package's constant),
// an identifier, string or comment naming a regather, or a reference to
// package ddp or fsdp (an import, or a type reached through an alias)
// is a per-strategy closed form. The analyzer keys on the package names
// hw and simnet.
//
// transportcalls — package comm reaches the transport only from
// schedule.go, where runSteps owns the frame-length check, the send
// join and the frame hand-back. A Send, Recv, SendBytes or RecvBytes
// method of a transport type, used in any other non-test file of comm —
// called, or taken as a method value or expression — is reported; a
// method of comm's own with one of those names is not. The analyzer
// keys on the package name comm.
//
// oneconstructor — strategy.Build is the only code that turns a
// strategy name into a replica. ddp.NewReplica or fsdp.New named in any
// other package — called, or taken as a value — is reported: a second
// construction site is a second copy of the run's configuration. A
// package whose path ends in internal/strategy or benchmark is exempt;
// benchmark/ is frozen so its figures compare across commits, and it
// builds through the constructors until it moves onto Build.
//
// onealign — only internal/replica's core.go broadcasts a module's
// tensors (replica.Align, replica.Core's buffer re-sync): a comm
// Broadcast of an nn.Parameter's Value.Data() or an nn.Buffer's
// Data.Data() in any other file, in any package, is reported.
//
// onespawn — cmd/ddptrain starts every child process through
// fleet.spawn: the command line comes from the flag binding, and the
// kill-and-reap covers an early return. os/exec's
// Command or CommandContext named in its non-test code — called, or
// taken as a value, through any import name, a dot import included — is
// reported wherever it is named more than once, and the package is
// reported when it is named nowhere. The analyzer keys on a package
// path ending in cmd/ddptrain, so its fixtures sit in such directories.
//
// # Testing convention
//
// Each analyzer has a seeded-violation fixture package and a clean
// fixture package under testdata/; seeded lines carry a trailing
// `//lint:want <analyzer>` marker. The tests assert an exact
// line-level match in both directions (every marker found, nothing
// unmarked flagged) and that clean fixtures stay silent under the full
// suite, so analyzer false positives and false negatives both fail the
// build. Fixture packages import the real repro packages they lint
// against — they type-check against the actual Store, Group and
// metrics APIs, not stand-ins.
package lint
