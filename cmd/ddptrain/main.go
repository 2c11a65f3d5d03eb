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
// Every mode drives one replica.Replica — forward, backward, step — and
// the one function that names a strategy is newReplica. After training,
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
// engine: gradients ReduceScatter into per-rank owned chunks and the
// momentum-SGD update is fused into Backward against optimizer shards
// (ZeRO-2); zero3 additionally keeps parameters as shards, AllGathering
// each bucket on demand for forward/backward and freeing it after use,
// so no rank ever holds the full model between steps. Over plain Ring
// groups the sharded run reproduces the DDP trajectory bitwise: the
// final hash (zero3 ranks Materialize the full parameters first) equals
// the one -strategy ddp prints. -sync-every and -rr do not compose with
// sharding.
//
// -algo doubletree selects the double-binary-tree AllReduce (NCCL-2.4
// style: two complementary trees each carrying half the payload,
// log-depth latency). -hosts labels may be structured with "/"
// (pod0/rack0/host0,...) to build an N-level topology: hierarchical
// and auto then reduce within each level and ring only the top-level
// leaders. -topo-levels asserts the labels parsed to the expected
// depth. Combining -algo hierarchical (or auto) with -compress runs
// the inter-host leader ring over compressed byte lanes while
// intra-host phases stay exact — the compressed leader ring.
//
// The -elastic mode demonstrates fault-tolerant training instead: it
// runs `-world` in-process elastic workers, crashes one mid-iteration
// at -kill-step, lets the survivors detect the failure and
// re-rendezvous at the shrunken world, then (with -respawn) boots a
// replacement worker that joins the running job and receives model and
// optimizer state from a survivor:
//
//	ddptrain -elastic -world 3 -iters 60 -kill-step 20
//
// Combining -elastic with -launch lifts the same scenario to real OS
// processes: this process becomes the supervisor — it hosts the TCP
// store and spawns `-world` elastic worker subprocesses that rendezvous
// and build TCP meshes. One worker hard-exits mid-iteration (no
// cleanup, like a SIGKILL); the supervisor detects the child's death
// and (with -respawn) spawns a replacement process that rejoins the
// running job and is brought up to date via state sync. At the end the
// supervisor verifies through the store that every finisher — including
// the respawned process — holds a bit-identical replica:
//
//	ddptrain -elastic -launch -world 3 -iters 60 -kill-step 20
//
// With -ckpt-dir the elastic modes additionally persist durable sharded
// checkpoints every -ckpt-every steps (asynchronously unless
// -ckpt-async=false), and -resume cold-starts from the newest committed
// checkpoint. The -kill-all variant demonstrates the failure elastic
// recovery alone cannot survive: every worker process is crashed at
// -kill-step, and the supervisor relaunches the whole world with
// -resume — the run continues from the last committed checkpoint
// instead of being lost:
//
//	ddptrain -elastic -launch -world 3 -iters 60 -kill-step 20 \
//	    -ckpt-dir /tmp/ddpckpt -ckpt-every 5 -kill-all
//
// The elastic modes take -strategy zero2 as well (with -ckpt-dir: a
// sharded world recovers by rolling back to a committed checkpoint, not
// from a survivor); zero3 is refused there, because a finisher's final
// parameters can only be gathered while its process group is still up.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/ddp"
	"repro/internal/elastic"
	"repro/internal/fsdp"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// The model and data shape every mode trains.
const (
	features, hidden, classes = 64, 64, 10
	momentum                  = 0.9
)

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
	topoLevels   int
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
	worker    bool
	id        string
	admitStep int

	metricsAddr string
	traceOut    string
}

func parseFlags() *options {
	o := &options{}
	flag.IntVar(&o.rank, "rank", 0, "this process's rank")
	flag.IntVar(&o.world, "world", 1, "number of processes")
	flag.StringVar(&o.store, "store", "127.0.0.1:29500", "rendezvous store address (rank 0 binds it)")
	flag.BoolVar(&o.launch, "launch", false, "spawn ranks 1..world-1 as subprocesses of this one")
	flag.IntVar(&o.iters, "iters", 100, "training iterations")
	flag.IntVar(&o.batch, "batch", 16, "per-rank batch size")
	flag.Float64Var(&o.lr, "lr", 0.05, "learning rate")
	flag.IntVar(&o.bucketMB, "bucket-mb", 25, "DDP bucket size in MB (0 = per-parameter buckets)")
	flag.StringVar(&o.strategy, "strategy", "ddp", "data-parallel strategy: ddp (replicated), zero2 (sharded gradients+optimizer), or zero3 (sharded parameters too)")
	flag.StringVar(&o.algo, "algo", "ring", "allreduce algorithm: ring, tree, doubletree, naive, hierarchical, auto")
	flag.StringVar(&o.compress, "compress", "", "gradient compression codec: fp16, 1bit, or topk (empty: none); frames ride the byte lanes with error feedback, or the step fails with comm.ErrCompressionUnsupported; with -algo hierarchical/auto only the leader ring compresses")
	flag.StringVar(&o.hosts, "hosts", "", "comma-separated host label per rank (topology for hierarchical/auto; labels may nest with '/', e.g. pod0/rack0/h0; empty: derive from peer addresses)")
	flag.IntVar(&o.topoLevels, "topo-levels", 0, "assert the -hosts labels parsed into exactly this many topology levels (0: no check)")
	flag.IntVar(&o.syncEvery, "sync-every", 1, "synchronize gradients every n iterations (no_sync)")
	flag.IntVar(&o.rr, "rr", 1, "number of round-robin process groups (Section 5.4)")
	flag.BoolVar(&o.elastic, "elastic", false, "run the elastic fault-tolerance demo instead (in-proc; with -launch, across OS processes)")
	flag.IntVar(&o.killStep, "kill-step", -1, "elastic: step at which one worker is crashed (default iters/3)")
	flag.BoolVar(&o.killAll, "kill-all", false, "elastic -launch: crash EVERY worker at -kill-step, then cold-restart the whole world from the last checkpoint (requires -ckpt-dir)")
	flag.BoolVar(&o.respawn, "respawn", true, "elastic: boot a replacement worker after the crash")
	flag.StringVar(&o.ckptDir, "ckpt-dir", "", "elastic: durable checkpoint directory (empty: checkpointing disabled)")
	flag.IntVar(&o.ckptEvery, "ckpt-every", 10, "elastic: save a sharded checkpoint every n steps")
	flag.BoolVar(&o.ckptAsync, "ckpt-async", true, "elastic: persist checkpoints on a background goroutine instead of the training hot path")
	flag.BoolVar(&o.resume, "resume", false, "elastic: cold-start restore from the newest committed checkpoint in -ckpt-dir")
	flag.BoolVar(&o.worker, "worker", false, "internal: run as a single elastic worker process (spawned by -elastic -launch)")
	flag.StringVar(&o.id, "id", "", "internal: elastic worker identity")
	flag.IntVar(&o.admitStep, "admit-step", -1, "internal: step at which incumbents yield to admit a respawned worker")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus text-format metrics at this address under /metrics (empty: disabled)")
	flag.StringVar(&o.traceOut, "trace-out", "", "elastic: write recovery span trees as JSON to this file on exit (worker processes append -<id>.json)")
	flag.Parse()
	return o
}

func main() {
	o := parseFlags()
	if o.metricsAddr != "" {
		msrv, err := metrics.Default().Serve(o.metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddptrain: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("[metrics] serving http://%s/metrics\n", msrv.Addr())
	}
	var err error
	switch {
	case !o.elastic:
		if _, err = run(o); err != nil {
			err = fmt.Errorf("rank %d: %w", o.rank, err)
		}
	case o.worker:
		err = runElasticWorker(o)
	case o.launch:
		err = runElasticSupervisor(o)
	default:
		err = runElastic(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddptrain: %v\n", err)
		os.Exit(1)
	}
}

// validate rejects, before anything is spawned or bound, the flag
// combinations no mode can honour.
func (o *options) validate() error {
	switch o.strategy {
	case "ddp":
	case "zero2", "zero3":
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
		if o.elastic && o.ckptDir == "" {
			return fmt.Errorf("-elastic -strategy %s needs -ckpt-dir: a sharded world recovers from a committed checkpoint, not from a survivor", o.strategy)
		}
		if o.elastic && o.strategy == "zero3" {
			return errors.New("-elastic does not support -strategy zero3: a finisher's full parameters can only be gathered while its process group is up")
		}
	default:
		return fmt.Errorf("-strategy: unknown strategy %q (want ddp, zero2 or zero3)", o.strategy)
	}
	_, err := codecFactory(o.compress)
	return err
}

// codecFactory maps the -compress flag to a NewCodec factory; both
// strategies take the one compressed path, with engine-owned
// error-feedback residuals.
func codecFactory(name string) (func() comm.Codec, error) {
	switch name {
	case "":
		return nil, nil
	case "fp16":
		return func() comm.Codec { return comm.Float16Codec{} }, nil
	case "1bit":
		return func() comm.Codec { return &comm.OneBitCodec{} }, nil
	case "topk":
		return func() comm.Codec { return &comm.TopKCodec{} }, nil
	default:
		return nil, fmt.Errorf("unknown compression codec %q (want fp16, 1bit, or topk)", name)
	}
}

// newReplica is the one place this binary turns -strategy into a
// replica: DDP with momentum SGD, or fsdp with the same update fused.
// aligned reports that the caller already made the model's tensors
// identical on every rank (the elastic agent does), so the
// constructor's rank-0 broadcast is skipped. describe, when non-nil,
// renders the strategy's memory accounting as of the call.
func newReplica(o *options, m nn.Module, pg comm.ProcessGroup, aligned bool) (r replica.Replica, describe func() string, err error) {
	newCodec, err := codecFactory(o.compress)
	if err != nil {
		return nil, nil, err
	}
	bucketBytes := o.bucketMB << 20
	if o.bucketMB == 0 {
		bucketBytes = -1
	}
	if o.strategy == "ddp" {
		opt := optim.NewSGD(m.Parameters(), float32(o.lr))
		opt.Momentum = momentum
		r, err = ddp.NewReplica(m, pg, ddp.Options{BucketCapBytes: bucketBytes, NewCodec: newCodec, SkipInitialBroadcast: aligned}, opt)
		return r, nil, err
	}
	st, err := fsdp.ParseStrategy(o.strategy)
	if err != nil {
		return nil, nil, err
	}
	f, err := fsdp.New(m, pg, fsdp.Options{
		Strategy: st, BucketCapBytes: bucketBytes, LR: float32(o.lr), Momentum: momentum,
		NewCodec: newCodec, SkipInitialBroadcast: aligned,
	})
	if err != nil {
		return nil, nil, err
	}
	return f, func() string {
		s := f.Stats()
		return fmt.Sprintf("%s memory: param shard %d B + optimizer shard %d B per rank, peak params %d B (full %d B), peak grad bucket %d B, %d gathers, %d reduces",
			o.strategy, s.ShardParamBytes, s.OptimizerBytes, s.PeakParamBytes, s.FullParamBytes, s.PeakGradBytes, s.Gathers, s.Reduces)
	}, nil
}

// commOptions turns -algo, -hosts and -topo-levels into group options.
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
	if err != nil {
		return comm.Options{}, err
	}
	// -topo-levels guards against placement typos: structured labels
	// with uneven depth silently degrade to one opaque level, which
	// would quietly run the two-level schedule where the operator
	// expected pod/rack/host phases.
	if o.topoLevels > 0 {
		if topology == nil {
			return comm.Options{}, fmt.Errorf("-topo-levels %d requires -hosts", o.topoLevels)
		}
		if got := topology.Levels(); got != o.topoLevels {
			return comm.Options{}, fmt.Errorf("-hosts labels parsed into %d topology level(s), want %d", got, o.topoLevels)
		}
	}
	return comm.Options{Algorithm: algorithm, Topology: topology}, nil
}

// launchRank builds the command for one of rank 0's -launch children.
// A variable so the regression test for leaked children can hand them
// flags under which they outlive a failing rank 0.
var launchRank = func(args ...string) *exec.Cmd { return exec.Command(os.Args[0], args...) }

// accumulator is the one capability outside the seam the loop uses:
// DDP's no_sync (Section 3.2.4), which only -sync-every > 1 reaches
// and validate admits for -strategy ddp alone.
type accumulator interface{ NoSync(fn func() error) error }

// run is the non-elastic trainer, one rank of it: the same loop for
// every strategy. It returns the parameter hash all ranks agreed on.
func run(o *options) (uint64, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	opts, err := o.commOptions()
	if err != nil {
		return 0, err
	}

	// Rank 0 hosts the rendezvous store; everyone (including rank 0)
	// connects as a client.
	var children []*exec.Cmd
	// The last thing a successful run does is wait for every child; on
	// any error before that, the ranks still running are killed and
	// reaped here rather than left blocked on a rank 0 that is gone.
	defer func() {
		for _, cmd := range children {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()
	if o.rank == 0 {
		srv, err := store.ServeTCP(o.store, 60*time.Second)
		if err != nil {
			return 0, fmt.Errorf("starting store: %w", err)
		}
		defer srv.Close()
		for r := 1; o.launch && r < o.world; r++ {
			cmd := launchRank(
				"-rank", fmt.Sprint(r), "-world", fmt.Sprint(o.world),
				"-store", o.store, "-iters", fmt.Sprint(o.iters),
				"-batch", fmt.Sprint(o.batch), "-lr", fmt.Sprint(o.lr),
				"-bucket-mb", fmt.Sprint(o.bucketMB), "-strategy", o.strategy,
				"-algo", o.algo,
				"-compress", o.compress, "-hosts", o.hosts,
				"-topo-levels", fmt.Sprint(o.topoLevels),
				"-sync-every", fmt.Sprint(o.syncEvery), "-rr", fmt.Sprint(o.rr))
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return 0, fmt.Errorf("launching rank %d: %w", r, err)
			}
			children = append(children, cmd)
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

	dataset := data.NewSynthetic(42, 8192, features, classes)
	model := models.NewMLP(int64(o.rank), features, hidden, classes) // per-rank seeds; the constructor's broadcast aligns
	r, describe, err := newReplica(o, model, pg, false)
	if err != nil {
		return 0, fmt.Errorf("wrapping model (%s): %w", o.strategy, err)
	}
	tag := fmt.Sprintf("[rank %d]", o.rank)
	if o.rank == 0 {
		if describe != nil {
			fmt.Println(tag, describe())
		}
		if newCodec, _ := codecFactory(o.compress); newCodec != nil {
			c := newCodec()
			fmt.Printf("%s gradient compression: %s (~%.0fx smaller frames, error feedback on)\n",
				tag, c.Name(), c.CompressionRatio())
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
	loader.Reset(0)

	timer := trace.NewTimer()
	epoch := int64(0)
	var lastLoss float32
	for it := 0; it < o.iters; it++ {
		x, labels, ok := loader.Next()
		if !ok {
			epoch++
			loader.Reset(epoch)
			x, labels, _ = loader.Next()
		}
		step := func() error {
			timer.Start("forward")
			out := r.Forward(autograd.Constant(x))
			loss := autograd.CrossEntropyLoss(out, labels)
			lastLoss = loss.Value.Item()
			timer.Start("backward+comm")
			return r.Backward(loss)
		}
		if (it+1)%o.syncEvery == 0 {
			if err = step(); err == nil {
				timer.Start("optimizer") // where Backward did not already fuse it
				r.Step()
			}
		} else {
			err = r.(accumulator).NoSync(step)
		}
		if err != nil {
			return 0, fmt.Errorf("iteration %d: %w", it, err)
		}
		timer.Stop()
		if o.rank == 0 && (it+1)%20 == 0 {
			fmt.Printf("%s iter %4d loss %.4f buckets %d\n", tag, it+1, lastLoss, r.NumBuckets())
		}
	}

	// Report the strategy's accounting before the consistency check: its
	// Materialize holding everything at once is not a training-time peak.
	if describe != nil {
		fmt.Println(tag, describe())
	}
	hash, consistent, err := replica.Consistent(pg, r)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%s done: loss %.4f, hash %016x, replicas consistent: %v\n", tag, lastLoss, hash, consistent)
	fmt.Printf("%s timing: %s\n", tag, timer.Breakdown())
	if !consistent {
		return hash, errors.New("model replicas diverged")
	}

	for len(children) > 0 {
		cmd := children[0]
		children = children[1:]
		if err := cmd.Wait(); err != nil {
			return hash, fmt.Errorf("child: %w", err)
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
	for i, l := range labels {
		labels[i] = strings.TrimSpace(l)
		if labels[i] == "" {
			return nil, fmt.Errorf("-hosts label %d is empty", i)
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
	if err := tr.WriteJSON(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	fmt.Printf("[trace] wrote %d recovery span tree(s) to %s\n", len(tr.Roots()), path)
	return nil
}

// ---- elastic: what all three modes share -----------------------------------

// validateElastic is validate plus the elastic demo's own constraints;
// it resolves -kill-step's default.
func (o *options) validateElastic() error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.world < 2 {
		return fmt.Errorf("-elastic needs -world >= 2, got %d", o.world)
	}
	if o.killStep < 0 {
		o.killStep = o.iters / 3
	}
	if o.killStep >= o.iters {
		return fmt.Errorf("-kill-step %d must be below -iters %d", o.killStep, o.iters)
	}
	return nil
}

// elasticConfig is one worker's agent configuration: everything but
// where the store and the process groups come from is the same in-proc
// and across OS processes. The straggler detector runs with default
// thresholds and surfaces every verdict transition as a log line (the
// elastic_straggler gauge carries the same signal to -metrics-addr
// scrapes).
func (o *options) elasticConfig(id string, st store.Store, builder elastic.GroupBuilder, tracer *trace.Tracer) elastic.Config {
	cfg := elastic.Config{
		Store:             st,
		ID:                id,
		Prefix:            "elastic",
		MinWorld:          o.world - 1,
		MaxWorld:          o.world,
		Grace:             500 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTimeout:      500 * time.Millisecond,
		RoundTimeout:      15 * time.Second,
		DrainTimeout:      200 * time.Millisecond,
		Builder:           builder,
		Replica: func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
			r, _, err := newReplica(o, m, pg, true)
			return r, err
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
	return cfg
}

// elasticBatch derives a deterministic batch from (step, rank, world),
// so workers shard data correctly across reconfigurations without a
// stateful loader.
func elasticBatch(step int64, rank, world, batch int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(step*1_000_003 + int64(rank)*10_007 + int64(world)*101))
	x := tensor.New(batch, features)
	d := x.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

// elasticStep is the one elastic StepFunc. crash is nil except on the
// planned victim, which runs its forward pass at -kill-step — so peers
// are left mid-iteration — and then dies the way crash says (a hard
// os.Exit across processes, Agent.Kill in-proc). admit reports whether
// the step must yield to a pending membership change instead of
// training: the deterministic hand-over to a respawned worker.
func elasticStep(o *options, tag string, agent *elastic.Agent, crash func() error, admit func(elastic.StepContext) bool) elastic.StepFunc {
	logged := false
	return func(ctx elastic.StepContext) error {
		if crash != nil && ctx.Step == int64(o.killStep) {
			x, _ := elasticBatch(ctx.Step, ctx.Rank, ctx.World, o.batch)
			ctx.Replica.Forward(autograd.Constant(x))
			fmt.Printf("[%s] worker crashed mid-iteration at step %d (gen %d, world %d)\n",
				tag, ctx.Step, ctx.Generation, ctx.World)
			return crash()
		}
		// A slow-starting worker can miss the initial grace window; yield
		// until its generation bump reforms the full world. Generation 0
		// only — at later generations a small world at step 0 is a
		// legitimate post-crash state, not an incomplete formation.
		if (ctx.Step == 0 && ctx.Generation == 0 && ctx.World < o.world) || admit(ctx) {
			return agent.AwaitGenerationChange()
		}
		if !logged {
			logged = true
			fmt.Printf("[%s] rank %d/%d at generation %d, resuming from step %d\n",
				tag, ctx.Rank, ctx.World, ctx.Generation, ctx.Step)
		}
		x, labels := elasticBatch(ctx.Step, ctx.Rank, ctx.World, o.batch)
		out := ctx.Replica.Forward(autograd.Constant(x))
		loss := autograd.CrossEntropyLoss(out, labels)
		if err := ctx.Replica.Backward(loss); err != nil {
			return err
		}
		ctx.Replica.Step()
		if ctx.Rank == 0 && (ctx.Step+1)%20 == 0 {
			fmt.Printf("[%s] step %4d loss %.4f (gen %d, world %d)\n",
				tag, ctx.Step+1, loss.Value.Item(), ctx.Generation, ctx.World)
		}
		return nil
	}
}

// ---- elastic across OS processes -------------------------------------------

// runElasticSupervisor hosts the rendezvous store and supervises
// `world` elastic worker subprocesses: it detects child exits and, when
// a worker dies before finishing, spawns a replacement process that
// rejoins the running job — the cross-process analogue of
// torchelastic's agent. One worker is told to crash at killStep, so a
// full failure+recovery cycle is exercised end to end.
//
// With -kill-all (requires -ckpt-dir), every worker crashes at
// killStep instead — the failure elastic recovery alone cannot survive
// — and the supervisor relaunches the whole world with -resume, which
// cold-starts from the last committed checkpoint.
func runElasticSupervisor(o *options) error {
	if err := o.validateElastic(); err != nil {
		return err
	}
	if o.killAll && o.ckptDir == "" {
		return errors.New("-kill-all needs -ckpt-dir: with no checkpoint, killing every worker simply loses the run")
	}
	world, iters, killStep, killAll, respawn := o.world, o.iters, o.killStep, o.killAll, o.respawn
	// Incumbents yield at admitStep until the replacement's generation
	// bump lands, so the training loop cannot outrun the respawn.
	// Without -respawn there is nothing to wait for: survivors just
	// finish at the shrunken world. (In -kill-all mode the admit step is
	// set later, to the restored step of the cold-restarted world.)
	admitStep := -1
	if respawn && !killAll {
		admitStep = killStep + 3
		if admitStep >= iters {
			admitStep = iters - 1
		}
	}
	srv, err := store.ServeTCP(o.store, 120*time.Second)
	if err != nil {
		return fmt.Errorf("starting store: %w", err)
	}
	defer srv.Close()

	type exit struct {
		id   string
		code int
	}
	exits := make(chan exit, 2*world+2)
	running := 0
	launchWorker := func(id string, victim, resume bool) error {
		args := []string{"-elastic", "-worker", "-id", id, "-store", o.store,
			"-world", fmt.Sprint(world), "-iters", fmt.Sprint(iters),
			"-batch", fmt.Sprint(o.batch), "-lr", fmt.Sprint(o.lr),
			"-bucket-mb", fmt.Sprint(o.bucketMB), "-strategy", o.strategy,
			"-compress", o.compress,
			"-admit-step", fmt.Sprint(admitStep)}
		if o.traceOut != "" {
			args = append(args, "-trace-out", o.traceOut)
		}
		if o.ckptDir != "" {
			args = append(args, "-ckpt-dir", o.ckptDir, "-ckpt-every", fmt.Sprint(o.ckptEvery),
				fmt.Sprintf("-ckpt-async=%v", o.ckptAsync), fmt.Sprintf("-resume=%v", resume))
		}
		if victim {
			args = append(args, "-kill-step", fmt.Sprint(killStep))
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("launching worker %s: %w", id, err)
		}
		running++
		go func() {
			err := cmd.Wait()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				code = -1
			}
			exits <- exit{id: id, code: code}
		}()
		return nil
	}

	victims := map[string]bool{fmt.Sprintf("w%d", world-1): true}
	if killAll {
		for i := 0; i < world; i++ {
			victims[fmt.Sprintf("w%d", i)] = true
		}
	}
	for i := 0; i < world; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := launchWorker(id, victims[id], o.resume); err != nil {
			return err
		}
	}

	// The demo injects exactly the planned crashes (one victim, or the
	// whole world with -kill-all); any other failure is real.
	crashes := 0
	respawns := 0
	coldRestarted := false
	var finishers []string
	for running > 0 {
		e := <-exits
		running--
		if e.code == 0 {
			finishers = append(finishers, e.id)
			continue
		}
		fmt.Printf("[supervisor] worker %s exited with code %d\n", e.id, e.code)
		if !victims[e.id] || coldRestarted {
			return fmt.Errorf("worker %s failed unexpectedly (code %d)", e.id, e.code)
		}
		crashes++
		if killAll {
			if crashes < world {
				continue // the rest of the doomed world is still dying
			}
			// Every worker is dead: the scenario elastic recovery alone
			// cannot survive. Cold-restart the full world from the last
			// committed checkpoint; incumbents park at the restored step
			// until the whole world has re-formed, keeping the resumed
			// schedule deterministic.
			meta, err := ckpt.LatestMeta(o.ckptDir)
			if err != nil {
				return fmt.Errorf("kill-all: no checkpoint to cold-restart from: %w", err)
			}
			fmt.Printf("[supervisor] all %d workers dead; cold-restarting from checkpoint at step %d (saved by world %d)\n",
				world, meta.Step, meta.World)
			// The store still holds the dead world's sealed round; open a
			// fresh one or the relaunched workers would park as standbys
			// of a generation whose members no longer exist. (A job
			// restarted against a brand-new store skips this naturally.)
			if err := advanceGeneration(o.store); err != nil {
				return fmt.Errorf("kill-all: opening a fresh rendezvous round: %w", err)
			}
			admitStep = int(meta.Step)
			coldRestarted = true
			for i := 0; i < world; i++ {
				if err := launchWorker(fmt.Sprintf("c%d", i), false, true); err != nil {
					return err
				}
			}
			continue
		}
		if crashes > 1 {
			return fmt.Errorf("worker %s failed unexpectedly (code %d)", e.id, e.code)
		}
		if !respawn {
			fmt.Printf("[supervisor] -respawn=false: survivors continue at world %d\n", world-1)
			continue
		}
		respawns++
		id := fmt.Sprintf("r%d", respawns)
		fmt.Printf("[supervisor] respawning replacement process %s\n", id)
		if err := launchWorker(id, false, o.resume); err != nil {
			return err
		}
	}
	if len(finishers) == 0 {
		return fmt.Errorf("no worker finished")
	}

	// Verify across process boundaries: every finisher published its
	// final step and parameter hash to the store.
	client, err := store.DialTCP(o.store)
	if err != nil {
		return fmt.Errorf("dialing store for verification: %w", err)
	}
	defer client.Close()
	base := ""
	for _, id := range finishers {
		v, err := client.Get(elastic.ResultKey("elastic", id))
		if err != nil {
			return fmt.Errorf("result of %s: %w", id, err)
		}
		if base == "" {
			base = string(v)
		} else if string(v) != base {
			return fmt.Errorf("replica %s diverged: %s vs %s", id, v, base)
		}
	}
	fmt.Printf("[supervisor] done: %d finishers (%d respawned), all replicas consistent: %s\n",
		len(finishers), respawns, base)
	return nil
}

// advanceGeneration bumps the elastic generation on the shared store,
// abandoning any round sealed by a now-dead world so freshly launched
// workers rendezvous from a clean slate.
func advanceGeneration(storeAddr string) error {
	client, err := store.DialTCP(storeAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	rdzv, err := elastic.NewRendezvous(elastic.Config{Store: client, Prefix: "elastic"})
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

// runElasticWorker is one elastic trainer process, spawned by the
// supervisor. With -kill-step it hard-exits mid-iteration at that step
// — os.Exit runs no cleanup, so peers observe exactly what a SIGKILL
// produces: heartbeat silence and connections closed by the kernel.
func runElasticWorker(o *options) error {
	if o.id == "" {
		return errors.New("-worker requires -id")
	}
	if err := o.validate(); err != nil {
		return err
	}
	client, err := store.DialTCP(o.store)
	if err != nil {
		return fmt.Errorf("dialing store: %w", err)
	}
	defer client.Close()

	model := models.NewMLP(7, features, hidden, classes)
	agent, err := elastic.NewAgent(o.elasticConfig(o.id, client, &elastic.TCPBuilder{Store: client}, trace.NewTracer()), model)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		defer func() {
			if err := dumpTrace(agent.Tracer(), fmt.Sprintf("%s-%s.json", o.traceOut, o.id)); err != nil {
				fmt.Fprintf(os.Stderr, "[%s] %v\n", o.id, err)
			}
		}()
	}

	var crash func() error
	if o.killStep >= 0 {
		crash = func() error { os.Exit(1); return nil }
	}
	admit := func(ctx elastic.StepContext) bool {
		return o.admitStep >= 0 && ctx.Step == int64(o.admitStep) && ctx.World < o.world
	}
	if err := agent.Run(int64(o.iters), elasticStep(o, o.id, agent, crash, admit)); err != nil {
		return err
	}
	if err := elastic.PublishResult(client, "elastic", o.id, agent.Step(), model); err != nil {
		return fmt.Errorf("publishing result: %w", err)
	}
	fmt.Printf("[%s] done: %s\n", o.id, elastic.FormatResult(agent.Step(), model))
	return nil
}

// ---- elastic in one process ------------------------------------------------

// runElastic is the end-to-end fault-tolerance proof: `world` elastic
// workers train in-proc; one is crashed mid-iteration, survivors
// detect it and reconfigure, a replacement rejoins and is brought up
// to date, and every surviving replica ends bit-identical.
func runElastic(o *options) error {
	if err := o.validateElastic(); err != nil {
		return err
	}
	st := store.NewInMem(60 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	// One tracer shared by every in-proc worker: each recovery is built
	// by its own goroutine, the tracer only serializes the root list, so
	// the dump interleaves all workers' span trees in start order.
	tracer := trace.NewTracer()
	if o.traceOut != "" {
		defer func() {
			if err := dumpTrace(tracer, o.traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "[elastic] %v\n", err)
			}
		}()
	}

	type worker struct {
		agent *elastic.Agent
		model nn.Module
	}
	mkWorker := func(id string) (*worker, error) {
		model := models.NewMLP(7, features, hidden, classes)
		a, err := elastic.NewAgent(o.elasticConfig(id, st, &elastic.InProcBuilder{Registry: reg}, tracer), model)
		if err != nil {
			return nil, err
		}
		return &worker{agent: a, model: model}, nil
	}
	// After the crash is survived, incumbents admit the replacement at
	// a fixed step: they release its spawn and yield until its
	// generation bump lands, so the demo cannot race the (fast,
	// in-proc) training loop against the (wall-clock) respawn.
	admitStep := int64(min(o.killStep+3, o.iters-1))
	spawnReplacement := make(chan struct{})
	var admitOnce sync.Once
	admit := func(ctx elastic.StepContext) bool {
		if !o.respawn || ctx.World != o.world-1 || ctx.Step != admitStep {
			return false
		}
		admitOnce.Do(func() { close(spawnReplacement) })
		return true
	}

	workers := make([]*worker, o.world)
	for i := range workers {
		w, err := mkWorker(fmt.Sprintf("w%d", i))
		if err != nil {
			return err
		}
		workers[i] = w
	}
	victim := workers[o.world-1]

	// wg tracks every worker; initialWG tracks only the initial set so
	// the monitor below never Waits on the group the late replacement
	// joins (an Add-from-zero concurrent with Wait is WaitGroup misuse).
	var wg, initialWG sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	runWorker := func(name string, w *worker, extra *sync.WaitGroup) {
		var crash func() error
		if w == victim {
			crash = func() error { w.agent.Kill(); return errors.New("simulated crash") }
		}
		wg.Add(1)
		if extra != nil {
			extra.Add(1)
		}
		go func() {
			defer wg.Done()
			if extra != nil {
				defer extra.Done()
			}
			err := w.agent.Run(int64(o.iters), elasticStep(o, "elastic", w.agent, crash, admit))
			mu.Lock()
			errs[name] = err
			mu.Unlock()
		}()
	}
	for i, w := range workers {
		runWorker(fmt.Sprintf("w%d", i), w, &initialWG)
	}

	var replacement *worker
	if o.respawn {
		// Boot the replacement when the survivors signal they are past
		// the crash and ready to admit it — or bail out if they all
		// ended (e.g. on error) before admitting anyone, so a failed
		// run reports instead of hanging here.
		allDone := make(chan struct{})
		go func() {
			initialWG.Wait()
			close(allDone)
		}()
		select {
		case <-spawnReplacement:
			var err error
			replacement, err = mkWorker("respawned")
			if err != nil {
				return err
			}
			fmt.Printf("[elastic] respawning replacement worker\n")
			runWorker("respawned", replacement, nil)
		case <-allDone:
		}
	}
	wg.Wait()

	finishers := make([]*worker, 0, o.world)
	for i, w := range workers {
		name := fmt.Sprintf("w%d", i)
		if w == victim {
			if !errors.Is(errs[name], elastic.ErrKilled) {
				return fmt.Errorf("victim returned %v, want ErrKilled", errs[name])
			}
			fmt.Printf("[elastic] victim exit confirmed: %v\n", errs[name])
			continue
		}
		if errs[name] != nil {
			return fmt.Errorf("worker %s: %w", name, errs[name])
		}
		finishers = append(finishers, w)
	}
	if replacement != nil {
		if errs["respawned"] != nil {
			return fmt.Errorf("respawned worker: %w", errs["respawned"])
		}
		finishers = append(finishers, replacement)
	}

	// The same record the cross-process supervisor compares.
	base := elastic.FormatResult(finishers[0].agent.Step(), finishers[0].model)
	consistent := true
	for _, w := range finishers[1:] {
		if elastic.FormatResult(w.agent.Step(), w.model) != base {
			consistent = false
		}
	}
	fmt.Printf("[elastic] done: %d finishers, %s, replicas consistent: %v\n", len(finishers), base, consistent)
	if !consistent {
		return errors.New("replicas diverged after recovery")
	}
	return nil
}
