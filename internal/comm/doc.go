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
//     so large buffers stream through the trees (doubletree.go has the
//     construction and the colouring; walking its rounds, below, prices
//     the latency win over Ring).
//   - Naive: full exchange with every peer — the strawman baseline.
//   - Hierarchical: the topology-aware AllReduce. With the classic
//     two-level Topology it reduces onto per-host leaders, runs the
//     inter-host ring among leaders only, and broadcasts back. A flat
//     ring spanning machines makes every server's NIC carry the
//     crossing edges of all concurrent rings, collapsing per-ring
//     bandwidth to NIC/GPUsPerServer (the paper's Section 6.1
//     observation, modeled in hw.Cluster's links); reducing within
//     the host first sends only one rank's worth of data per host
//     across the network, recovering most of that loss (the bench
//     package's hierarchical ablation prices the recovery by walking
//     this schedule). An N-level Topology (nested "/" labels:
//     pod/rack/host) generalizes this to reduce-up/broadcast-down per
//     level with the ring at the top among top-level leaders only
//     (hw.Cluster.AllReduceSeconds over group sizes prices the
//     latency/bandwidth tradeoff). Under a compressed collective
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
// Every collective is a per-rank list of steps {to, from, send [lo,hi),
// recv [lo,hi), land|fold into|fold under, frame kind}, produced by a
// pure generator — ringSteps, binomialReduceSteps,
// binomialBroadcastSteps, doubleTreeSteps, naiveSteps, allGatherSteps,
// the compressed builders, and ringAllReduceSteps, treeSteps and
// hierarchicalSteps, which concatenate others — and run by the one
// executor, runSteps, the only code in this package that touches the
// transport (a CI gate keeps it so). Its rules: a step that sends and
// receives overlaps the two and joins its send before the frame lands; a
// step with no receive posts its send and moves on, and a posted send is
// joined before a later step writes a range it still reads, and before
// runSteps returns on every path; sends to one peer leave in list order.
// So a float send ships its range as it was when its step began, and
// Naive and AllGather, whose sends must not read what their folds write,
// run over a snapshot and a slot buffer. Every frame is length-checked,
// and a wrong one fails with an error that names collective, rank, peer,
// step, got/want and the unit (elements or bytes). A step whose peer is
// the rank itself is local: its frame never touches the wire.
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
// worlds 1-33 statically, under the executor's rules: sends meet
// receives of equal length and lane in per-link FIFO order, nothing can
// block forever, every ring chunk follows that chain, every compressed
// reduce-scatter chunk folds in rank order, and every AllReduce list,
// compressed or not, leaves every contribution on every rank exactly
// once.
//
// The same lists are the cost model. WalkAllReduce, WalkReduceScatterV
// and WalkAllGatherV time every rank's list on links a Hop prices per
// frame, under runSteps' rules (walk.go), so internal/hw
// prices each algorithm from the schedule that runs, not from a closed
// form written beside it.
//
// Every float fold of every schedule — ring, tree, pair exchange, Naive,
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
// which every frame is compressed (one exchange between two ranks under
// fp16), so the codec's ratio lands on the wire rather than only in the
// simulator's cost model. There is one
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
// pre-call contents back (backUpResidual); read it only after Wait.
//
// A flat compressed collective quantizes its contribution when it is
// submitted (run.launch, called by submitCompressed between tag
// reservation and enqueue): the schedule's leading contribution steps —
// the two-rank frame, stage 1's peer frames and its own chunk — read only
// the caller's data and residual, so they run on the submitting goroutine
// and the group's worker, which runs one collective at a time, only
// sends, receives and lands. At most maxLaunched collectives are launched
// ahead of their end, which bounds the buffers launches hold; a later one
// launches as soon as one ahead of it finishes. The caller's contract
// follows: a compressed collective reads its data and residual from its
// submission on, and both belong to it until Wait returns.
// Non-finite gradient elements are dropped and counted
// (comm_dropped_nonfinite_total) instead of poisoning scales and residuals with NaN.
//
// A codec step is a step whose frames are the collective's codec on the
// byte lane; runSteps runs it like any other. Its send encodes its range
// chunk by chunk along the collective's chunkBounds layout into one
// pooled frame — each chunk with its residual slice when it ships a
// contribution — and, where the list reads the quantized value again (a
// reduced value, or a range the step also receives into), quantizes the
// range in place, since Encode's deq receives exactly what Decode of the
// frame yields; a send repeating the step before it to another peer ships
// the same frame. A received frame must be the sum of its chunks'
// EncodedSize (a rank whose own encode is mis-sized ships every frame
// from then on empty and fails at its next receive) and lands chunk by
// chunk: Decode
// verbatim, DecodeAdd folded — also under a fold-under range, since a
// codec fold adds one finite value and finite addition commutes. A local
// codec step holds Encode's deq in a pooled float buffer until its local
// receive lands it, or, landing verbatim where it reads, quantizes in
// place. No rank ever builds, ships or decodes a frame for itself.
//
// The compressed AllReduce (compressedSteps) is two such lists. Stage 1,
// which is CompressedReduceScatterV's whole schedule, posts each peer's
// chunk to its owner, quantizes its own chunk locally while those fly,
// and lands the k contributions to its chunk in rank order — the first
// verbatim, the rest folded, its own at its position. Stage 2 posts the
// reduced chunk, quantized once without the residual, to every peer and
// decodes theirs. Two ranks (two top leaders, under Hierarchical) need
// only one exchange up to ringPairMaxElems, the float ring's cutoff:
// ringPairStep as a rounding codec step — both chunks in one frame, each
// with its residual slice, and the peer's frame landed on the own
// quantized values in one pass (tensor.HalfLand for fp16): the addition
// is each chunk's owner fold, and re-quantizing the sum without the
// residual is, by the contract above, what the owner's stage-2 frame
// would decode to; a flat Avg's 1/2 is applied in the same pass. Data,
// residuals and wire bytes are the two stages'.
// Only Float16Codec takes this path: 1-bit's and top-k's round trip costs
// more than the hop it saves (BenchmarkRingPairCrossover), so they keep
// the two stages. The compressed leader ring is hierarchicalSteps with
// compressedSteps over the top leaders in place of the ring: one list,
// one executor, for both lanes.
//
// fp16's encoder, decoders and pair landing are tensor's HalfEncode,
// HalfDecode, HalfDecodeAdd and HalfLand, leaves with eight-lane amd64
// bodies (F16C conversions) under the tensor kernels' contract; the
// rounding rule — nearest-even for normal results, half-UP
// for subnormal ones, saturation to ±65504 — is stated at tensor's
// halfBits and pinned, like every bit the codecs produce, to the scalar
// converters kept in codec_ref_test.go.
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
