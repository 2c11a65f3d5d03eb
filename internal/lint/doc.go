// Package lint is the project's static-analysis gate: seven analyzers
// encoding invariants that ordinary vet checks cannot see because they
// are about THIS codebase's contracts — store error discipline,
// collective/lock ordering, metric registration, cost models that price
// the schedules the runtime runs, a table of site rules (comm's one
// transport call site, the one replica constructor, the one file that
// broadcasts a module's tensors, ddptrain's one spawn site, and the ban
// on the function-form 64-bit atomics), doc comments on what internal/
// exports, and code that no program reaches, sets or names.
// Span lifecycles need no analyzer: trace.Tracer.WithSpan,
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
// where <analyzer> is the name the finding carries: an analyzer's, or a
// site rule's. The reason is mandatory, and suppressed findings are
// counted in the driver's summary line, so exceptions stay visible
// instead of silently accumulating. A pragma without a reason, one that
// names no analyzer or rule (a typo), and one that suppresses nothing in
// a run of its analyzer (it outlived the code it excused) are each
// reported as a finding of the pseudo-analyzer "pragma".
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
// sites — the "written once" rules, one row of the table siteRules
// each: within the row's scope (a package path suffix, or every
// package), its symbols are named only at its allowed sites (a package
// path suffix, or one file of a package), or, for a row marked once,
// exactly once. A symbol counts wherever it is named — called, or taken
// as a value or method value to call later, through any import name,
// alias or dot import — and a function of another package, or a method
// of another type, with the same name does not. A row may narrow its
// uses to calls whose first argument a matcher describes. Each finding
// carries its row's name, and each row's comment in sites.go gives the
// row's reason. The rows:
//
//   - transportcalls: in internal/comm, the transport's Send, Recv,
//     SendBytes and RecvBytes only in schedule.go, where runSteps owns
//     the frame-length check, the send join and the frame hand-back.
//   - oneconstructor: ddp.NewReplica and fsdp.New only in
//     internal/strategy (Build) and the frozen benchmark/.
//   - onealign: comm's Broadcast of an nn.Parameter's Value.Data() or
//     an nn.Buffer's Data.Data() only in internal/replica/core.go.
//   - onespawn: os/exec's Command or CommandContext exactly once in
//     cmd/ddptrain, at the spawn site fleet.spawn runs.
//   - atomic64align: sync/atomic's ten 64-bit function forms nowhere;
//     on GOARCH=386 they fault on an operand that is not 8-aligned, and
//     the typed atomic.Int64 and atomic.Uint64 align themselves. CI's
//     GOARCH=386 build smoke keeps the tree compiling for those targets.
//
// doc — every exported identifier of an internal/ package is
// documented: a top-level func, type, var or const with an exported
// name, and an exported method of an exported type, carries a doc
// comment (a member of a documented group inherits the group's; a
// comment of only directives such as //go:noinline documents nothing).
//
// reach — what no program reaches goes. It sees every loaded package
// at once (Analyzer.Module) and walks, by rapid type analysis over the
// go/types data the loader builds, from the roots of the table
// reachRoots in reach.go, each row with its reason:
//
//   - programs: main of cmd/ddptrain, cmd/ddpbench, cmd/ddplint and of
//     each example whose tier-1 test holds what it prints (checkpoint,
//     elastic, mnist, paramavg, quickstart, unusedparams, zero1), plus
//     the init funcs and package-level var initializers of every package
//     they import (an assignment to _ alone is not walked: a
//     var _ I = (*T)(nil) assertion reaches nothing);
//   - benchmark: every name its files use, since BENCHMARK.json freezes
//     them;
//   - internal/chaos: its exported API, the tier-1 elastic recovery
//     corpus.
//
// A func, var, const or type is reached when reached code names it. A
// method is reached when reached code calls it (or takes it as a value),
// or calls the same-named method through an interface that a live type
// meets; a type is live once reached code converts it to an interface
// (an argument, an assigned, initial or returned value, or a composite
// literal's element), and so is every field or element type of a live
// type.
// A method of a live type that meets an interface declared outside the
// module (error, fmt.Stringer, a marshaler) counts as called. Generic
// instances count as their origin. Every func, method, type, var and
// const declared at package level in a package under internal/ that
// some loaded package imports is held; a package only tests import
// (testutil, testutil/leakcheck) is not, nor is a method or interface
// method whose type is itself unreached (the type is the finding). With
// no program root loaded (the fixtures of the other analyzers, or
// ddplint -C benchmark) it reports nothing but Testing* names (below).
// An exception is a
// //ddplint:ignore reach pragma naming its reader on the declaration;
// what the excused declaration reaches stays reached with it.
//
// The same walk answers the callers rows, whose findings carry the name
// callers (a Rules entry of Reach, as a site rule's row names its
// findings), from the uses it records:
//
//   - fields: an exported struct field of an exported type declared in a
//     held package needs reached code that sets it (a keyed or unkeyed
//     composite literal, an assignment, an increment, or its address
//     taken), so a field whose only setter is itself unreached is a
//     finding beside that setter.
//   - outside: in internal/comm, transport, reduce and store, an exported
//     func or type that reached code names only inside its package is a
//     finding. Uses are type-checked, so an import alias counts and a
//     comment does not; benchmark/ counts, its files being a root.
//   - an identifier starting with Testing in the non-test code of any
//     loaded package, with a program root loaded or not, is a test-only
//     knob.
//
// Each exception is a //ddplint:ignore callers pragma naming its reader,
// in the package that declares the identifier.
//
// The scope of a row is a package path suffix, so the fixtures of a
// scoped row sit in directories that end in it
// (testdata/transportcalls_bad/internal/comm, onespawn_ok/cmd/ddptrain).
//
// # Testing convention
//
// Each analyzer, and each site rule, has a seeded-violation fixture
// package and a clean fixture package under testdata/; seeded lines
// carry a trailing `//lint:want <analyzer>` marker, naming the rule for
// a site rule. The tests assert an exact line-level match in both
// directions (every marker found, nothing unmarked flagged) and that
// clean fixtures stay silent under the full suite, so analyzer false
// positives and false negatives both fail the build. Every allowed site
// of a site rule must name the row's symbols in the tree
// (TestSiteRulesHaveNoIdleSite; TestOneConstructorExemptions and
// TestOneAlignExemption for those two rows), so no exemption outlives the code it
// allowed. A module-wide analyzer's fixture is a directory of packages,
// loaded together under a root (testdata/callers_bad/{cmd/ddpbench,
// internal/lib,internal/comm}, testdata/reach_ok/{cmd/ddpbench,benchmark,
// internal/lib,internal/testonly}). A seeded fixture is held to every
// name its analyzer's findings carry, so callers_bad marks the reach
// finding on the unreached setter too. Fixture packages import the real
// repro packages they lint against — they type-check against the actual
// Store, Group and metrics APIs, not stand-ins.
package lint
