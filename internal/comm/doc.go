// Package comm implements the collective communication layer DDP is
// built on — the equivalent of PyTorch's c10d library (Section 3.3 of
// the paper). It exposes a ProcessGroup API wrapping interchangeable
// transports and AllReduce algorithms, async Work handles, and a
// composite round-robin ProcessGroup.
//
// Like NCCL's dedicated CUDA streams, every ProcessGroup owns a worker
// goroutine that executes its collectives strictly in submission order;
// callers get back a Work handle immediately and may overlap further
// computation with the communication (the paper's central optimization).
// All ranks must submit the same operations in the same order — the
// transports' tag checks turn violations into errors instead of silent
// gradient corruption.
//
// # AllReduce algorithms
//
// Six algorithms are provided, mirroring the selection space inside
// NCCL/Gloo that the paper discusses (Section 2.3):
//
//   - Ring: reduce-scatter + all-gather around a ring — literally the
//     sharded pair ReduceScatterV then AllGatherV (see "Schedules"
//     below). Bandwidth optimal (2(k-1)/k of the buffer per link),
//     2(k-1) latency terms; one, between two ranks, up to 1 MiB.
//   - Tree: binomial reduce to rank 0 + broadcast back; log(k)
//     latency, the right shape for small messages.
//   - DoubleTree: NCCL 2.4's double binary trees — two complementary
//     in-order binary trees, each reducing and broadcasting half the
//     payload in the rounds of one two-coloured schedule, with every
//     rank an inner node in at most one tree. Log-depth like Tree but
//     at full bandwidth (no half-idle leaves), with chunk pipelining
//     so large buffers stream through the trees
//     (hw.DoubleTreeAllReduceSeconds models the latency win over
//     Ring; doubletree.go has the construction and the colouring).
//   - Naive: full exchange with every peer — the strawman baseline.
//   - Hierarchical: the topology-aware AllReduce. With the classic
//     two-level Topology it reduces onto per-host leaders, runs the
//     inter-host ring among leaders only, and broadcasts back. A flat
//     ring spanning machines makes every server's NIC carry the
//     crossing edges of all concurrent rings, collapsing per-ring
//     bandwidth to NIC/GPUsPerServer (the paper's Section 6.1
//     observation, modeled in hw.AllReduceSeconds); reducing within
//     the host first sends only one rank's worth of data per host
//     across the network, recovering most of that loss
//     (hw.HierarchicalAllReduceSeconds models the recovery; the bench
//     package's hierarchical ablation quantifies it). An N-level
//     Topology (nested "/" labels: pod/rack/host) generalizes this to
//     reduce-up/broadcast-down per level with the ring at the top
//     among top-level leaders only (hw.NLevelAllReduceSeconds prices
//     the latency/bandwidth tradeoff). Under a compressed collective
//     (see below) the top leader ring — the only phase crossing the
//     expensive boundary — runs compressed over the byte lanes while
//     intra-level phases stay exact.
//   - Auto: picks per collective from the message size, world size,
//     and the group's Topology, like NCCL's size-driven algorithm
//     switch: small messages take the log-depth Tree, large messages
//     on a multi-host topology take Hierarchical, medium messages on
//     deep worlds (>= 32 ranks) take DoubleTree, everything else Ring.
//     Selection is a pure function of (size, world, topology), all
//     identical on every rank, so all ranks agree.
//
// Every algorithm leaves bitwise-identical results on every rank —
// each reduced value is computed on exactly one rank and propagated
// verbatim — which is the invariant that lets DDP guarantee identical
// replicas. Algorithms may differ from EACH OTHER in low bits (float
// reduction order differs), so all ranks must also agree on the
// algorithm, which Options and Auto's deterministic rule ensure.
//
// # Schedules
//
// A collective over one flat buffer is a per-rank list of steps
// {to, from, send [lo,hi), recv [lo,hi), land|fold into|fold under},
// produced by a pure generator — ringSteps, binomialReduceSteps,
// binomialBroadcastSteps, doubleTreeSteps, and ringAllReduceSteps,
// treeSteps and hierarchicalSteps, which concatenate the first three —
// and run by the one executor, runSteps. It overlaps each step's send
// with its receive, joins that send on every path and before the frame
// lands (so a send ships its range as it was before the step), and
// length-checks every frame, failing with an error that names
// collective, rank, peer, step and got/want. The all-peers collectives
// (Naive, AllGather, both stages of the compressed AllReduce) share the
// generic exchange over the float and byte lanes, which joins every
// outstanding send before it returns and consumes frames in the listed
// rank order. Those two, both in
// schedule.go, are the only code in this package that touches the
// transport (a CI gate keeps it so).
//
// One ring pass is k-1 steps over the ChunkBounds layout. Folding, and
// started one chunk behind the rank, it is the reduce-scatter: chunk c
// leaves rank c+1, is folded once on every rank it visits and last on
// rank c, its owner, so each of its elements is
//
//	(((x[c+1] + x[c+2]) + ...) + x[c-1]) + x[c]    (ranks mod k)
//
// computed on exactly one rank. Copying, and started at the rank, the
// same pass is the all-gather of owned chunks. ReduceScatterV is the
// first, AllGatherV the second and the Ring AllReduce is one after the
// other — which is why a ZeRO step (reduce-scatter, local update,
// all-gather) is bitwise a DDP step. Between two ranks, up to
// ringPairMaxElems, ringAllReduceSteps is one step instead: each ships
// the whole buffer and folds its own chunk into the buffer, the peer's
// under it (the same kernel, operands swapped), which is that chain
// with the owner's operand roles on both ranks, bit for bit. Because
// schedules exist without a mesh, a unit test checks every generator at
// worlds 1-33 statically: sends meet receives of equal length in
// per-link FIFO order, nothing can block forever, every ring chunk
// follows that chain, and every AllReduce list leaves every
// contribution on every rank exactly once.
//
// Every fold of every schedule — ring, tree, pair exchange, Naive,
// ReduceScatterV, the compressed own-chunk fold — is reduceInto, which
// from reduceParallelThreshold elements up splits the range over up to
// GOMAXPROCS goroutines (elementwise, so the split cannot change a bit)
// and hands each part to reduceRange. Sum and Avg fold there through
// tensor.AddFloats and Avg's closing 1/world scale (finishAvg) is
// tensor.ScaleFloats: the repository's one add loop and one scale loop,
// which on amd64 run eight lanes wide and keep every bit of the Go loops
// that define them (ARCHITECTURE.md, "Tensor kernels"). Prod, Min and
// Max are plain loops. An op outside the declared five is refused when
// the collective is submitted (through a codec, as every op but Sum and
// Avg is), on every rank alike and before a tag is reserved, world 1
// included; it never reaches a fold.
//
// # Gradient compression
//
// A Codec (Float16Codec, OneBitCodec, TopKCodec) is Section 6.2.3's
// lossy projection together with its byte representation, and
// CompressedAllReduce ships that representation over the transports'
// byte lanes (transport.ByteMesh): a reduce-scatter + all-gather in
// which every frame is compressed, so the codec's ratio lands on the
// wire rather than only in the simulator's cost model. There is one
// trajectory per (codec, resolved algorithm): the flat schedule, or the
// compressed leader ring on a Hierarchical group. A call that cannot
// ride the byte lanes — a group that does not implement
// GradientCompressor, a mesh without byte lanes, an op other than
// Sum/Avg — fails at submission with ErrCompressionUnsupported on every
// rank, nothing sent and nothing changed; it is never replaced by a
// quantize-then-AllReduce, which would be different numbers.
//
// Error feedback is caller-owned: Encode takes a residual vector that
// accumulates each element's quantization error across iterations
// (1-bit SGD's convergence trick). DDP keys these residuals by
// parameter identity so bucket rebuilds re-map them, and elastic
// recovery broadcasts them with the rest of the training state. A
// collective updates the residual in place and a failed one puts the
// pre-call contents back (residualBackup); read it only after Wait.
// Non-finite gradient elements are dropped and counted
// (DroppedNonFinite) instead of poisoning scales and residuals with NaN.
//
// The collective costs what its arithmetic costs. Decode defines what a
// frame means, and two fused entry points yield the same values bit for
// bit without the passes in between: Encode's deq out-parameter
// receives what Decode of the produced frame yields in the pass that
// quantizes (nil dst: no frame at all), and DecodeAdd folds a peer's
// frame into the accumulator without a scratch buffer. So in stage 1 a
// rank encodes chunk j when exchange is about to send it (frame j flies
// while chunk j+1 is encoded), quantizes its own chunk straight to
// floats between its last send and its first receive, and decode-adds
// the peers' frames in rank order, its own values at their position; in
// stage 2 the owner's re-encode leaves in the chunk the values its frame
// decodes to, which is what every other rank gets from the bytes. No
// rank ever builds, ships or decodes a frame for itself. The fp16
// kernels are bulk loops over integer bits (both roundings computed,
// one selected by a mask; decode through a 65 536-entry table) whose
// rounding rule — nearest-even for normal results, half-UP for
// subnormal ones, saturation to ±65504 — is stated at halfBits and
// pinned, like every bit the codecs produce, to
// the scalar converters kept in codec_ref_test.go.
//
// # Topology
//
// Topology maps ranks to placement labels. A plain label ("host3") is
// one level; "/"-separated labels ("pod0/rack1/host3") build an
// N-level hierarchy — Levels(), NumGroups, and the per-level phase
// schedule all derive from the label structure, so deeper physical
// topologies need no new API. Groups obtain a Topology from (in
// precedence order) Options.Topology, or the transport itself when it
// knows peer placement (TCP meshes implement transport.HostLister from
// rendezvous addresses). The elastic package's builders pass each
// rendezvous round's member hosts through Options.Topology — nested
// labels flow through rendezvous unchanged — so regenerated groups
// stay topology-aware across membership changes. The hierarchical
// levels, the compressed leader ring included, run over subsets of the
// group's ranks on its single transport.Mesh — no extra connections, no
// extra rendezvous, no view of the mesh.
package comm
