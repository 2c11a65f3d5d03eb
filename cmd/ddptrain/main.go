// Command ddptrain runs real distributed data parallel training across
// OS processes connected over TCP, with rank 0 hosting the rendezvous
// store — the multi-process deployment mode of the paper (as opposed to
// the single-process goroutine ranks the examples use).
//
// Launch every rank yourself:
//
//	ddptrain -rank 0 -world 2 -store 127.0.0.1:29500 &
//	ddptrain -rank 1 -world 2 -store 127.0.0.1:29500
//
// or let rank 0 spawn the others (it kills and reaps them if it fails):
//
//	ddptrain -world 4 -launch
//
// Every mode runs train.Step on one replica.Replica that strategy.Build
// makes from the flags' strategy.Spec: forward and the loss (timed as
// forward), then a backward that ends with the update applied (timed as
// backward+comm); the timing line sums train.Stats over the run. The
// training mode draws batches from a data.Loader over a synthetic
// dataset, the elastic mode from data.Coords. After training,
// ranks AllGather a hash of the exact bits of every parameter and
// verify every replica holds bit-identical parameters — the paper's
// correctness guarantee, checked for real across process boundaries.
//
// -compress fp16|1bit|topk enables wire-level gradient compression
// (Section 6.2.3): bucket gradients travel as the codec's byte frames
// over the TCP mesh's byte lanes — 2x, ~32x, and ~5x fewer wire bytes
// respectively — with per-parameter error-feedback residuals carrying
// the quantization error across iterations (and across the Section
// 6.2.1 bucket rebuild). The replica-consistency check still holds:
// compressed AllReduce leaves bitwise-identical gradients everywhere.
//
// -strategy zero2|zero3 swaps DDP's replicated state for the sharded
// engine: gradients ReduceScatter into per-rank owned chunks, the
// momentum-SGD update is fused into Backward against optimizer shards,
// and parameters persist as shards, each bucket AllGathered for the
// units that read it within a memory budget — the whole model (zero2)
// or one layer plus one bucket (zero3) — and freed after its last read.
// Over plain Ring groups the sharded run reproduces the DDP trajectory
// bitwise: the final hash (ranks Materialize the full parameters first)
// equals the one -strategy ddp prints. -sync-every and -rr do not
// compose with sharding.
//
// -algo doubletree selects the double-binary-tree AllReduce (NCCL-2.4
// style: two complementary trees each carrying half the payload,
// log-depth latency). -hosts labels may be structured with "/"
// (pod0/rack0/host0,...) to build an N-level topology: hierarchical
// and auto then reduce within each level and ring only the top-level
// leaders. Every label must nest to the same depth; -hosts is refused,
// naming two labels that disagree, rather than run as one opaque level.
// Combining -algo hierarchical (or auto) with -compress runs the
// inter-host leader ring over compressed byte lanes while intra-host
// phases stay exact — the compressed leader ring.
//
// The -elastic mode runs one fault-tolerance scenario instead. A
// supervisor starts -world elastic workers, and the last of them
// crashes mid-iteration at -kill-step. The survivors detect the failure,
// re-rendezvous at the shrunken world and train three steps there; then
// (with -respawn) they stop and tell the supervisor, through the store,
// to start a replacement, which joins the running job and receives model
// and optimizer state from a survivor. At the end the supervisor checks
// through the store that every finisher — the replacement included —
// published the same final step and parameter hash:
//
//	ddptrain -elastic -world 3 -iters 60 -kill-step 20
//
// A worker starts one of two ways, and the scenario and its hash are
// the same either way. By default it is a goroutine over an in-memory
// store and in-proc process groups, and it crashes with Agent.Kill.
// With -launch it is a child process over the TCP store the supervisor
// hosts and TCP meshes, and it crashes with a hard os.Exit — no
// cleanup, like a SIGKILL:
//
//	ddptrain -elastic -launch -world 3 -iters 60 -kill-step 20
//
// With -ckpt-dir the workers also persist durable sharded checkpoints
// every -ckpt-every steps (asynchronously unless -ckpt-async=false), and
// -resume cold-starts from the newest committed checkpoint. -kill-all
// shows the failure elastic recovery alone cannot survive: every worker
// crashes at -kill-step, and the supervisor restarts the whole world
// with -resume, goroutines or processes alike — the run continues from
// the last committed checkpoint instead of being lost, its parameters,
// optimizer state and, under -compress, rank 0's error-feedback
// residuals at the save:
//
//	ddptrain -elastic -world 3 -iters 60 -kill-step 20 \
//	    -ckpt-dir /tmp/ddpckpt -ckpt-every 5 -kill-all
//
// The elastic mode takes -strategy zero2|zero3 as well, with -ckpt-dir:
// a sharded world recovers by rolling back to a committed checkpoint,
// not from a survivor, and every worker materializes its parameters
// inside the final step, so finishers publish the same result as ddp's.
//
// Each mode reads a fixed set of flags (modeReads) and refuses, by name,
// any other flag set off its default. Every mode reads -world, -iters,
// -batch, -lr, -bucket-mb, -strategy, -compress and -metrics-addr.
// Training also reads -rank, -launch, -store, -algo, -hosts,
// -sync-every and -rr. -elastic also reads -kill-step, -kill-all,
// -respawn, -ckpt-dir, -ckpt-every, -ckpt-async, -resume and
// -trace-out, and with -launch, -store. A process given an -id is an
// elastic worker — the supervisor starts its child processes that way —
// and reads what -elastic -launch reads but -launch, plus -id. A child's
// command line is every flag its parent set off its default, plus its
// own -rank or -id. Out-of-range values (-world, -sync-every or -batch
// below 1, -rank outside -world, a training -batch above a rank's share
// of the dataset, a -kill-all whose -ckpt-every saves nothing before
// -kill-step) are refused by name before anything binds or spawns.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/elastic"
	"repro/internal/fsdp"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/train"
)

// The model and data shape every mode trains; samples is the size of
// the synthetic dataset the train mode shards across the ranks.
const features, hidden, classes, samples = 64, 64, 10, 8192

// options is the parsed command line; every mode takes it whole.
type options struct {
	rank, world  int
	store        string
	launch       bool
	iters, batch int
	lr           float64
	bucketMB     int
	strategy     string
	algo         string
	compress     string
	hosts        string
	syncEvery    int
	rr           int

	elastic   bool
	killStep  int
	killAll   bool
	respawn   bool
	ckptDir   string
	ckptEvery int
	ckptAsync bool
	resume    bool
	id        string

	metricsAddr string
	traceOut    string
}

// flags binds every option to a new flag set, the one list of flags:
// parsing the set writes o, and each flag's Value reads o back. A
// malformed command line exits.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("ddptrain", flag.ExitOnError)
	fs.IntVar(&o.rank, "rank", 0, "this process's rank")
	fs.IntVar(&o.world, "world", 1, "number of processes")
	fs.StringVar(&o.store, "store", "127.0.0.1:29500", "rendezvous store address (rank 0, or the elastic supervisor, binds it)")
	fs.BoolVar(&o.launch, "launch", false, "spawn ranks 1..world-1 (with -elastic: every worker) as subprocesses of this one")
	fs.IntVar(&o.iters, "iters", 100, "training iterations")
	fs.IntVar(&o.batch, "batch", 16, "per-rank batch size")
	fs.Float64Var(&o.lr, "lr", 0.05, "learning rate")
	fs.IntVar(&o.bucketMB, "bucket-mb", 25, "DDP bucket size in MB (0 = per-parameter buckets)")
	fs.StringVar(&o.strategy, "strategy", "ddp", "data-parallel strategy: ddp (replicated), or sharded with a parameter-gather budget of zero2 (the whole model) or zero3 (one layer plus one bucket)")
	fs.StringVar(&o.algo, "algo", "ring", "allreduce algorithm: ring, tree, doubletree, naive, hierarchical, auto")
	fs.StringVar(&o.compress, "compress", "", "gradient compression codec: fp16, 1bit, or topk (empty: none); frames ride the byte lanes with error feedback, or the step fails with comm.ErrCompressionUnsupported; with -algo hierarchical/auto only the leader ring compresses")
	fs.StringVar(&o.hosts, "hosts", "", "comma-separated host label per rank (topology for hierarchical/auto; labels may nest with '/', e.g. pod0/rack0/h0, all to the same depth; empty: derive from peer addresses)")
	fs.IntVar(&o.syncEvery, "sync-every", 1, "synchronize gradients every n iterations (no_sync)")
	fs.IntVar(&o.rr, "rr", 1, "number of round-robin process groups (Section 5.4)")
	fs.BoolVar(&o.elastic, "elastic", false, "run the elastic fault-tolerance demo instead (in-proc workers; with -launch, worker processes)")
	fs.IntVar(&o.killStep, "kill-step", -1, "elastic: step at which the victim is crashed (default iters/3)")
	fs.BoolVar(&o.killAll, "kill-all", false, "elastic: crash EVERY worker at -kill-step, then cold-restart the whole world from the last checkpoint (requires -ckpt-dir)")
	fs.BoolVar(&o.respawn, "respawn", true, "elastic: start a replacement worker after the crash")
	fs.StringVar(&o.ckptDir, "ckpt-dir", "", "elastic: durable checkpoint directory (empty: checkpointing disabled)")
	fs.IntVar(&o.ckptEvery, "ckpt-every", 10, "elastic: save a sharded checkpoint every n steps")
	fs.BoolVar(&o.ckptAsync, "ckpt-async", true, "elastic: persist checkpoints on a background goroutine instead of the training hot path")
	fs.BoolVar(&o.resume, "resume", false, "elastic: cold-start restore from the newest committed checkpoint in -ckpt-dir")
	fs.StringVar(&o.id, "id", "", "run as the elastic worker with this identity (how -elastic -launch starts its workers)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus text-format metrics at this address under /metrics (empty: disabled)")
	fs.StringVar(&o.traceOut, "trace-out", "", "elastic: write recovery span trees as JSON to this file on exit (worker processes append -<id>.json)")
	return fs
}

// parse reads a command line into options.
func parse(args []string) *options {
	o := &options{}
	_ = o.flags().Parse(args) // ExitOnError: Parse returns only on success
	return o
}

// changed returns the flags o holds off their defaults, in name order.
func (o *options) changed() []*flag.Flag {
	var c options
	fs := c.flags()
	c = *o // the set's Values now read this copy of o
	var set []*flag.Flag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Value.String() != f.DefValue {
			set = append(set, f)
		}
	})
	return set
}

// argv is the command line that parses back into o.
func (o *options) argv() []string {
	var args []string
	for _, f := range o.changed() {
		args = append(args, "-"+f.Name+"="+f.Value.String())
	}
	return args
}

// The flags every mode reads, and those every elastic mode reads.
const (
	everyMode    = "world iters batch lr bucket-mb strategy compress metrics-addr "
	elasticFlags = everyMode + "elastic kill-step kill-all respawn ckpt-dir ckpt-every ckpt-async resume trace-out "
)

// modeReads lists the flags each mode reads. validate refuses any other
// flag set off its default, so a flag is refused everywhere until a
// mode claims it.
var modeReads = map[string]string{
	"train":           everyMode + "rank launch store algo hosts sync-every rr",
	"elastic":         elasticFlags,
	"elastic -launch": elasticFlags + "launch store",
	"worker":          elasticFlags + "store id",
}

// mode names the way o runs: a process given an -id is an elastic
// worker, whatever else is set.
func (o *options) mode() string {
	switch {
	case o.id != "":
		return "worker"
	case o.elastic && o.launch:
		return "elastic -launch"
	case o.elastic:
		return "elastic"
	}
	return "train"
}

// validate rejects, before anything is spawned or bound, every flag the
// mode does not read, out-of-range values, and the combinations of
// values no mode can honour.
// It resolves -kill-step's default.
func (o *options) validate() error {
	m := o.mode()
	reads := strings.Fields(modeReads[m])
	for _, f := range o.changed() {
		if !slices.Contains(reads, f.Name) {
			return fmt.Errorf("-%s is not read in %s mode", f.Name, m)
		}
	}
	switch {
	case o.bucketMB < 0 || o.bucketMB > math.MaxInt>>20:
		return fmt.Errorf("-bucket-mb %d, want 0 (per-parameter buckets) to %d", o.bucketMB, math.MaxInt>>20)
	case o.rr < 1:
		return fmt.Errorf("-rr %d, want at least 1", o.rr)
	case o.ckptEvery < 0:
		return fmt.Errorf("-ckpt-every %d, want 0 (never) or more", o.ckptEvery)
	}
	if err := o.spec(false).Check(); err != nil {
		return err
	}
	shard, err := data.NewDistributedSampler(samples, o.rank, o.world)
	switch {
	case err != nil:
		return fmt.Errorf("-rank %d, -world %d: %w", o.rank, o.world, err)
	case o.syncEvery < 1:
		return fmt.Errorf("-sync-every %d, want at least 1", o.syncEvery)
	case o.batch < 1:
		return fmt.Errorf("-batch %d, want at least 1", o.batch)
	case m == "train" && o.batch > shard.PerRank():
		return fmt.Errorf("-batch %d exceeds a rank's %d samples at -world %d", o.batch, shard.PerRank(), o.world)
	}
	elasticRun := m != "train"
	if o.strategy != "" && o.strategy != "ddp" {
		// The sharded engine fuses reduction and optimizer into Backward:
		// there is no un-synchronized local step to accumulate into, and
		// round-robin groups would break the stable shard ownership the
		// layout depends on.
		if o.syncEvery > 1 {
			return fmt.Errorf("-strategy %s does not support -sync-every (gradients shard on every step)", o.strategy)
		}
		if o.rr > 1 {
			return fmt.Errorf("-strategy %s does not support -rr round-robin groups", o.strategy)
		}
		if elasticRun && o.ckptDir == "" {
			return fmt.Errorf("-elastic -strategy %s needs -ckpt-dir: a sharded world recovers from a committed checkpoint, not from a survivor", o.strategy)
		}
	}
	if elasticRun {
		if o.world < 2 {
			return fmt.Errorf("-elastic needs -world >= 2, got %d", o.world)
		}
		if o.killAll && o.ckptDir == "" {
			return errors.New("-kill-all needs -ckpt-dir: with no checkpoint, killing every worker simply loses the run")
		}
		if o.killAll && o.ckptEvery == 0 {
			return errors.New("-kill-all needs -ckpt-every of at least 1: -ckpt-every 0 saves no checkpoint, so killing every worker simply loses the run")
		}
		if o.killStep < 0 {
			o.killStep = o.iters / 3
		}
		if o.killStep >= o.iters {
			return fmt.Errorf("-kill-step %d must be below -iters %d", o.killStep, o.iters)
		}
		if o.killAll && o.ckptEvery > o.killStep {
			return fmt.Errorf("-kill-all needs a checkpoint before the kill: -ckpt-every %d saves none by -kill-step %d", o.ckptEvery, o.killStep)
		}
	}
	_, err = o.commOptions()
	return err
}

func main() {
	if err := runMode(parse(os.Args[1:])); err != nil {
		fmt.Fprintf(os.Stderr, "ddptrain: %v\n", err)
		os.Exit(1)
	}
}

// runMode validates o and runs its mode.
func runMode(o *options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.metricsAddr != "" {
		msrv, err := metrics.Default().Serve(o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer msrv.Close()
		fmt.Printf("[metrics] serving http://%s/metrics\n", msrv.Addr())
	}
	switch {
	case o.id != "":
		return workerProcess(o)
	case o.elastic:
		_, err := supervise(o)
		return err
	}
	if _, err := run(o); err != nil {
		return fmt.Errorf("rank %d: %w", o.rank, err)
	}
	return nil
}

// spec is the replica the flags ask for; aligned reports that the
// caller already made the model's tensors identical on every rank.
func (o *options) spec(aligned bool) strategy.Spec {
	capBytes := o.bucketMB << 20
	if o.bucketMB == 0 {
		capBytes = -1
	}
	return strategy.Spec{Strategy: o.strategy, BucketCapBytes: capBytes, Codec: o.compress, LR: float32(o.lr), Aligned: aligned}
}

// commOptions turns -algo and -hosts into group options.
func (o *options) commOptions() (comm.Options, error) {
	algorithm, err := comm.ParseAlgorithm(o.algo)
	if err != nil {
		return comm.Options{}, err
	}
	// -hosts lays out a simulated (or real) topology explicitly: one
	// label per rank. Without it, TCP meshes derive placement from the
	// peers' rendezvous addresses — correct for genuinely multi-host
	// jobs, while an all-loopback run degrades hierarchical to ring.
	topology, err := parseHosts(o.hosts, o.world)
	return comm.Options{Algorithm: algorithm, Topology: topology}, err
}

// exit is how one worker or child process ended: err is nil when it
// finished.
type exit struct {
	id  string
	err error
}

// fleet is what one run started — child processes, or goroutines (in-proc
// workers, the supervisor's admission watch) — each reporting its exit
// on exits. running counts the exits not yet received; only goRun and
// wait change it. Every run that spawns defers stop, so no return leaves
// a child running or unreaped.
type fleet struct {
	exits   chan exit
	running int
	procs   []*os.Process
}

// newFleet returns a fleet with room for size exits, so a goroutine
// that outlives its run never blocks on its report.
func newFleet(size int) *fleet { return &fleet{exits: make(chan exit, size)} }

// command builds the command for one child process. A variable so tests
// can run their children from the test binary.
var command = func(args ...string) *exec.Cmd { return exec.Command(os.Args[0], args...) }

// crashStatus is the exit status of a worker process that crashed as
// planned. spawn reports it as elastic.ErrKilled, the error an in-proc
// victim returns, so one check tells a planned crash from a failure.
const crashStatus = 3

// spawn starts this binary as a child whose command line parses back
// into o, writing to this process's stdout and stderr.
func (f *fleet) spawn(o *options, id string) error {
	cmd := command(o.argv()...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("launching %s: %w", id, err)
	}
	f.procs = append(f.procs, cmd.Process)
	f.goRun(id, func() error {
		if err := cmd.Wait(); cmd.ProcessState.ExitCode() != crashStatus {
			return err
		}
		return elastic.ErrKilled
	})
	return nil
}

// goRun runs fn on a goroutine that reports its end as id's exit.
func (f *fleet) goRun(id string, fn func() error) {
	f.running++
	go func() { f.exits <- exit{id, fn()} }()
}

// wait receives the next exit; ok is false once none is left to come.
func (f *fleet) wait() (e exit, ok bool) {
	if f.running == 0 {
		return exit{}, false
	}
	f.running--
	return <-f.exits, true
}

// stop kills every child process still running and reaps it, receiving
// every exit still to come. In-proc workers are not waited for: they end
// when their store closes.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.Kill()
	}
	for ok := len(f.procs) > 0; ok; _, ok = f.wait() {
	}
}

// run is the non-elastic trainer, one rank of it: the same loop for
// every strategy. It returns the parameter hash all ranks agreed on.
func run(o *options) (uint64, error) {
	opts, err := o.commOptions()
	if err != nil {
		return 0, err
	}

	// Rank 0 hosts the rendezvous store; everyone (including rank 0)
	// connects as a client. The last thing a successful run does is wait
	// for every child; on any error before that, the ranks still running
	// are killed and reaped rather than left blocked on a rank 0 that is
	// gone.
	f := newFleet(o.world)
	defer f.stop()
	if o.rank == 0 {
		ln, err := net.Listen("tcp", o.store)
		if err != nil {
			return 0, fmt.Errorf("starting store: %w", err)
		}
		srv := store.ServeTCP(ln, 60*time.Second)
		defer srv.Close()
		for r := 1; o.launch && r < o.world; r++ {
			c := *o
			c.rank, c.launch, c.metricsAddr = r, false, ""
			if err := f.spawn(&c, fmt.Sprintf("rank %d", r)); err != nil {
				return 0, err
			}
		}
	}

	client, err := store.DialTCP(o.store)
	if err != nil {
		return 0, fmt.Errorf("dialing store: %w", err)
	}
	defer client.Close()

	// Build the process group: a single TCP group, or `rr` of them
	// composed round-robin (each sub-group gets its own mesh and worker,
	// like the paper's composite ProcessGroup over NCCL/Gloo instances).
	var pg comm.ProcessGroup
	if o.rr <= 1 {
		if pg, err = comm.NewTCPGroup(o.rank, o.world, client, "train", opts); err != nil {
			return 0, fmt.Errorf("building process group: %w", err)
		}
	} else {
		subs := make([]comm.ProcessGroup, o.rr)
		for i := range subs {
			if subs[i], err = comm.NewTCPGroup(o.rank, o.world, client, fmt.Sprintf("train-rr%d", i), opts); err != nil {
				return 0, fmt.Errorf("building round-robin sub-group %d: %w", i, err)
			}
		}
		if pg, err = comm.NewRoundRobin(subs...); err != nil {
			return 0, fmt.Errorf("composing round-robin group: %w", err)
		}
	}
	defer pg.Close()

	dataset := data.NewSynthetic(42, samples, features, classes)
	model := models.NewMLP(int64(o.rank), features, hidden, classes) // per-rank seeds; the constructor's broadcast aligns
	r, err := strategy.Build(model, pg, o.spec(false))
	if err != nil {
		return 0, fmt.Errorf("wrapping model (%s): %w", o.strategy, err)
	}
	tag := fmt.Sprintf("[rank %d]", o.rank)
	// describe renders a sharded replica's memory accounting as of the call.
	describe := func() {
		if f, ok := r.(*fsdp.FSDP); ok {
			s := f.Stats()
			fmt.Printf("%s %s memory: param shard %d B + optimizer shard %d B per rank, peak params %d B (full %d B), peak grad bucket %d B, gather staging %d B, %d gathers, %d reduces\n",
				tag, o.strategy, s.ShardParamBytes, s.OptimizerBytes, s.PeakParamBytes, s.FullParamBytes, s.PeakGradBytes, s.StagingBytes, s.Gathers, s.Reduces)
		}
	}
	if o.rank == 0 {
		describe()
		if o.compress != "" {
			fmt.Printf("%s gradient compression: %s (error feedback on)\n", tag, o.compress)
		}
	}

	sampler, err := data.NewDistributedSampler(dataset.Len(), o.rank, o.world)
	if err != nil {
		return 0, err
	}
	loader, err := data.NewLoader(dataset, sampler, o.batch)
	if err != nil {
		return 0, err
	}

	// With -sync-every > 1, which validate admits for -strategy ddp
	// alone, the steps between synchronizations run under NoSync.
	var total train.Stats
	for it := 0; it < o.iters; it++ {
		x, labels := loader.Next()
		st, err := train.Step(r, x, train.CrossEntropy(labels), (it+1)%o.syncEvery == 0)
		if err != nil {
			return 0, fmt.Errorf("iteration %d: %w", it, err)
		}
		total.Add(st)
		if o.rank == 0 && (it+1)%20 == 0 {
			fmt.Printf("%s iter %4d loss %.4f buckets %d\n", tag, it+1, st.Loss, r.NumBuckets())
		}
	}

	// Report the strategy's accounting before the consistency check: its
	// Materialize holding everything at once is not a training-time peak.
	describe()
	hash, consistent, err := replica.Consistent(pg, r)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s done: loss %.4f, hash %016x, replicas consistent: %v\n", tag, total.Loss, hash, consistent)
	fmt.Printf("%s timing: %s\n", tag, total.Breakdown())
	if !consistent {
		return hash, errors.New("model replicas diverged")
	}

	for e, ok := f.wait(); ok; e, ok = f.wait() {
		if e.err != nil {
			return hash, fmt.Errorf("%s: %w", e.id, e.err)
		}
	}
	return hash, nil
}

// parseHosts turns the -hosts flag (comma-separated host label per
// rank) into a topology; empty means "let the transport derive it".
func parseHosts(hosts string, world int) (*comm.Topology, error) {
	if hosts == "" {
		return nil, nil
	}
	labels := strings.Split(hosts, ",")
	if len(labels) != world {
		return nil, fmt.Errorf("-hosts lists %d labels for world %d", len(labels), world)
	}
	depth := func(l string) int { return strings.Count(l, "/") + 1 }
	for i, l := range labels {
		labels[i] = strings.TrimSpace(l)
		if labels[i] == "" {
			return nil, fmt.Errorf("-hosts label %d is empty", i)
		}
		// comm.NewTopology would build one opaque level from labels of
		// uneven depth, quietly running the two-level schedule where the
		// operator expected pod/rack/host phases.
		if depth(labels[i]) != depth(labels[0]) {
			return nil, fmt.Errorf("-hosts labels nest to different depths: %q has %d level(s), %q has %d",
				labels[0], depth(labels[0]), labels[i], depth(labels[i]))
		}
	}
	return comm.NewTopology(labels), nil
}

// dumpTrace writes the tracer's recovery span trees to path as JSON.
func dumpTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	if err := errors.Join(tr.WriteJSON(f), f.Close()); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("[trace] wrote %d recovery span tree(s) to %s\n", len(tr.Roots()), path)
	return nil
}

// ---- elastic -----------------------------------------------------------------

// prefix namespaces every elastic key in the store; admitKey is the one
// the survivors set when they are ready to admit a replacement.
const (
	prefix   = "elastic"
	admitKey = prefix + "/admit"
)

// victim reports whether worker id crashes at -kill-step: the last
// worker of the first world, or with -kill-all every one of them.
// Replacements (r…) and cold-restarted workers (c…) never do.
func (o *options) victim(id string) bool {
	return id == fmt.Sprintf("w%d", o.world-1) || o.killAll && strings.HasPrefix(id, "w")
}

// supervise runs the elastic scenario. It starts -world workers, one of
// which (with -kill-all, all of which) crashes at -kill-step. Once the
// survivors are ready to admit a replacement it starts one; once the
// whole world is dead it restarts it from the last checkpoint. It
// returns the result every finisher published, after checking they
// agree. Workers are goroutines over an in-memory store, or with
// -launch child processes over the TCP store this process hosts: both
// report their exits on one channel, and everything after the start is
// the same.
func supervise(o *options) (string, error) {
	// Room for the first world, then an admission watch and a replacement,
	// or a restarted world. stop is deferred first so it runs after the
	// store closes, which ends a pending admission watch.
	f := newFleet(2 * o.world)
	defer f.stop()
	var st store.Store
	var startWorker func(w *options) error
	if o.launch {
		ln, err := net.Listen("tcp", o.store)
		if err != nil {
			return "", fmt.Errorf("starting store: %w", err)
		}
		srv := store.ServeTCP(ln, 120*time.Second)
		defer srv.Close()
		client, err := store.DialTCP(o.store)
		if err != nil {
			return "", fmt.Errorf("dialing store: %w", err)
		}
		defer client.Close()
		st = client
		startWorker = func(w *options) error { return f.spawn(w, w.id) }
	} else {
		mem := store.NewInMem(60 * time.Second)
		defer mem.Close()
		reg := comm.NewInProcRegistry()
		// One tracer shared by every in-proc worker: each recovery is built
		// by its own goroutine, the tracer only serializes the root list, so
		// the dump interleaves all workers' span trees in start order.
		tracer := trace.NewTracer()
		if o.traceOut != "" {
			defer func() {
				if err := dumpTrace(tracer, o.traceOut); err != nil {
					fmt.Fprintf(os.Stderr, "[supervisor] %v\n", err)
				}
			}()
		}
		st = mem
		startWorker = func(w *options) error {
			f.goRun(w.id, func() error {
				return runElasticWorker(w, mem, &elastic.InProcBuilder{Registry: reg}, tracer, (*elastic.Agent).Kill)
			})
			return nil
		}
	}
	start := func(id string, resume bool) error {
		w := *o
		w.id, w.resume, w.launch, w.metricsAddr = id, resume, false, ""
		return startWorker(&w)
	}
	for i := 0; i < o.world; i++ {
		if err := start(fmt.Sprintf("w%d", i), o.resume); err != nil {
			return "", err
		}
	}

	// The demo injects exactly the planned crashes: a victim must end in
	// one, and any other end but finishing is a real failure.
	crashes, respawns := 0, 0
	var finishers []string
	for e, ok := f.wait(); ok; e, ok = f.wait() {
		switch {
		case e.id == admitKey && e.err != nil:
			return "", fmt.Errorf("waiting for the survivors to admit a replacement: %w", e.err)
		case e.id == admitKey:
			respawns++
			fmt.Printf("[supervisor] respawning replacement r%d\n", respawns)
			if err := start(fmt.Sprintf("r%d", respawns), o.resume); err != nil {
				return "", err
			}
			continue
		case e.err == nil && o.victim(e.id):
			return "", fmt.Errorf("victim %s finished instead of crashing at step %d", e.id, o.killStep)
		case e.err == nil:
			finishers = append(finishers, e.id)
			continue
		}
		fmt.Printf("[supervisor] worker %s exited: %v\n", e.id, e.err)
		if !o.victim(e.id) || !errors.Is(e.err, elastic.ErrKilled) {
			return "", fmt.Errorf("worker %s failed unexpectedly: %w", e.id, e.err)
		}
		crashes++
		switch {
		case o.killAll && crashes < o.world:
			// The rest of the doomed world is still dying.
		case o.killAll:
			// Every worker is dead: the scenario elastic recovery alone
			// cannot survive. Cold-restart the full world from the last
			// committed checkpoint.
			meta, err := ckpt.LatestMeta(o.ckptDir)
			if err != nil {
				return "", fmt.Errorf("kill-all: no checkpoint to cold-restart from: %w", err)
			}
			fmt.Printf("[supervisor] all %d workers dead; cold-restarting from checkpoint at step %d (saved by world %d)\n",
				o.world, meta.Step, meta.World)
			// The store still holds the dead world's sealed round; open a
			// fresh one or the restarted workers would park as standbys of
			// a generation whose members no longer exist.
			if err := advanceGeneration(st); err != nil {
				return "", fmt.Errorf("kill-all: opening a fresh rendezvous round: %w", err)
			}
			for i := 0; i < o.world; i++ {
				if err := start(fmt.Sprintf("c%d", i), true); err != nil {
					return "", err
				}
			}
		case o.respawn:
			// Store.Watch blocks until the survivors set the key; on its own
			// goroutine, reporting as one more exit, so an exit meanwhile is
			// still seen.
			f.goRun(admitKey, func() error {
				_, err := st.Watch(admitKey, nil)
				return err
			})
		default:
			fmt.Printf("[supervisor] -respawn=false: survivors continue at world %d\n", o.world-1)
		}
	}
	if len(finishers) == 0 {
		return "", errors.New("no worker finished")
	}

	// Every finisher published its final step and parameter hash.
	base := ""
	for _, id := range finishers {
		v, err := st.Get(elastic.ResultKey(prefix, id))
		if err != nil {
			return "", fmt.Errorf("result of %s: %w", id, err)
		}
		if base == "" {
			base = string(v)
		} else if string(v) != base {
			return "", fmt.Errorf("replica %s diverged: %s vs %s", id, v, base)
		}
	}
	fmt.Printf("[supervisor] done: %d finishers (%d respawned), all replicas consistent: %s\n",
		len(finishers), respawns, base)
	return base, nil
}

// advanceGeneration bumps the elastic generation on the shared store,
// abandoning any round sealed by a now-dead world so freshly started
// workers rendezvous from a clean slate.
func advanceGeneration(st store.Store) error {
	rdzv, err := elastic.NewRendezvous(elastic.Config{Store: st, Prefix: prefix})
	if err != nil {
		return err
	}
	g, err := rdzv.CurrentGeneration()
	if err != nil {
		return err
	}
	_, err = rdzv.ProposeGeneration(g)
	return err
}

// workerProcess is one elastic worker as a child process, over the TCP
// store and TCP meshes. Its crash is a hard os.Exit: no cleanup runs, so
// peers observe exactly what a SIGKILL produces — heartbeat silence and
// connections closed by the kernel.
func workerProcess(o *options) error {
	client, err := store.DialTCP(o.store)
	if err != nil {
		return fmt.Errorf("dialing store: %w", err)
	}
	defer client.Close()
	tracer := trace.NewTracer()
	if o.traceOut != "" {
		defer func() {
			if err := dumpTrace(tracer, fmt.Sprintf("%s-%s.json", o.traceOut, o.id)); err != nil {
				fmt.Fprintf(os.Stderr, "[%s] %v\n", o.id, err)
			}
		}()
	}
	return runElasticWorker(o, client, &elastic.TCPBuilder{Store: client}, tracer, func(*elastic.Agent) { os.Exit(crashStatus) })
}

// runElasticWorker is the body of one elastic worker, goroutine or
// process: it trains over st and builder, crashes the way crash says if
// it is a victim, and publishes its result for the supervisor. The
// straggler detector runs with default thresholds on each step's
// forward time and surfaces every verdict transition as a log line (the
// elastic_straggler gauge carries the same signal to -metrics-addr
// scrapes).
func runElasticWorker(o *options, st store.Store, builder elastic.GroupBuilder, tracer *trace.Tracer, crash func(*elastic.Agent)) error {
	// full records that this worker has been part of a world of -world
	// workers: at its first formation, or at any step since.
	full := false
	cfg := elastic.Config{
		Store:             st,
		ID:                o.id,
		Prefix:            prefix,
		MinWorld:          o.world - 1,
		MaxWorld:          o.world,
		Grace:             500 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTimeout:      500 * time.Millisecond,
		RoundTimeout:      15 * time.Second,
		DrainTimeout:      200 * time.Millisecond,
		Builder:           builder,
		Replica: func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
			full = full || pg.Size() == o.world
			return strategy.Build(m, pg, o.spec(true))
		},
		Tracer: tracer,
		Straggler: &elastic.StragglerConfig{
			OnFlag: func(f elastic.StragglerFlag) {
				state := "FLAGGED as straggler"
				if !f.Flagged {
					state = "no longer a straggler"
				}
				fmt.Printf("[straggler] worker %s %s: median step %v vs world median %v\n",
					f.Worker, state, f.Median.Round(time.Microsecond), f.WorldMedian.Round(time.Microsecond))
			},
		},
	}
	if o.ckptDir != "" {
		cfg.Checkpoint = &elastic.CheckpointConfig{Dir: o.ckptDir, Every: int64(o.ckptEvery), Async: o.ckptAsync, Resume: o.resume}
	}
	model := models.NewMLP(7, features, hidden, classes)
	agent, err := elastic.NewAgent(cfg, model)
	if err != nil {
		return err
	}
	if err := agent.Run(int64(o.iters), elasticStep(o, st, agent, &full, crash)); err != nil {
		return err
	}
	if err := elastic.PublishResult(st, prefix, o.id, agent.Step(), model); err != nil {
		return fmt.Errorf("publishing result: %w", err)
	}
	fmt.Printf("[%s] done: %s\n", o.id, elastic.FormatResult(agent.Step(), model))
	return nil
}

// elasticStep is the one elastic StepFunc. A victim runs its forward
// pass at -kill-step — so peers are left mid-iteration — and then dies
// the way crash says. Two rules make the trajectory independent of the
// wall clock; under both the step yields until a generation bump
// reforms the world:
//   - until a worker has been part of a full world (*full), a short
//     world only means a peer is still on its way: a slow starter that
//     missed the grace window, or a cold-restarted peer;
//   - with -respawn, the survivors of the crash train three steps at the
//     shrunken world, then set admitKey, on which the supervisor starts
//     the replacement.
//
// Batches are data.Coords, so workers shard data correctly across
// reconfigurations without a stateful loader. Each completed step's
// forward time goes to the straggler detector. The final step ends by
// materializing the parameters the published result hashes; a failure
// there recovers like any step's.
func elasticStep(o *options, st store.Store, agent *elastic.Agent, full *bool, crash func(*elastic.Agent)) elastic.StepFunc {
	batches := data.Coords{Batch: o.batch, Features: features, Classes: classes}
	admitStep := int64(-1)
	if o.respawn && !o.killAll {
		admitStep = int64(min(o.killStep+3, o.iters-1))
	}
	victim := o.victim(o.id)
	gen := -1
	return func(ctx elastic.StepContext) error {
		if victim && ctx.Step == int64(o.killStep) {
			x, _ := batches.At(ctx.Step, ctx.Rank, ctx.World)
			ctx.Replica.Forward(autograd.Constant(x))
			fmt.Printf("[%s] worker crashed mid-iteration at step %d (gen %d, world %d)\n",
				o.id, ctx.Step, ctx.Generation, ctx.World)
			crash(agent)
			return errors.New("simulated crash")
		}
		*full = *full || ctx.World == o.world
		if ctx.World < o.world && (!*full || ctx.Step == admitStep) {
			if *full {
				if err := st.Set(admitKey, []byte(fmt.Sprint(ctx.Step))); err != nil {
					return err
				}
			}
			return agent.AwaitGenerationChange()
		}
		if ctx.Generation != gen {
			gen = ctx.Generation
			fmt.Printf("[%s] rank %d/%d at generation %d, resuming from step %d\n",
				o.id, ctx.Rank, ctx.World, ctx.Generation, ctx.Step)
		}
		x, labels := batches.At(ctx.Step, ctx.Rank, ctx.World)
		stats, err := train.Step(ctx.Replica, x, train.CrossEntropy(labels), true)
		if err != nil {
			return err
		}
		agent.Straggler().Record(stats.Forward)
		if ctx.Rank == 0 && (ctx.Step+1)%20 == 0 {
			fmt.Printf("[%s] step %4d loss %.4f (gen %d, world %d)\n",
				o.id, ctx.Step+1, stats.Loss, ctx.Generation, ctx.World)
		}
		if ctx.Step == int64(o.iters)-1 {
			return ctx.Replica.Materialize()
		}
		return nil
	}
}
