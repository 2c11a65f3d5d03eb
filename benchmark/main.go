// Command benchmark is the repository's training-step benchmark: it
// trains real models through ddp/fsdp -> reduce -> comm -> transport on
// six workloads and prints end-to-end and per-layer metrics by name. It
// measures every layer from outside (timing public functions, decorating
// comm.ProcessGroup and transport.Mesh, reading runtime.MemStats and the
// program's transport counters) and claims no gain: it is the baseline
// later changes are judged against. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

type metricDef struct {
	name, unit string
	higher     bool    // better direction
	bound      float64 // end-to-end only: relative worsening that is a regression
	// exact marks an end-to-end metric that repeats to four digits for a
	// seed (counts and the loss, thanks to the fixed step counts);
	// -selfcheck holds it to that instead of to the bound.
	exact bool
}

// exactTolerance is the relative difference two runs of the same code
// and seed may show on an exact metric.
const exactTolerance = 5e-4

// endToEnd and perLayer are the metric catalogue; BENCHMARK.json repeats
// it and TestCatalogueMatchesBenchmarkJSON keeps the two equal.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "samples_per_s", unit: "samples/s", higher: true, bound: 0.25},
	{name: "step_ms_p50", unit: "ms", bound: 0.25},
	{name: "alloc_mb_per_step", unit: "MB", bound: 0.02, exact: true},
	{name: "wire_bytes_per_step", unit: "bytes", bound: 0.001, exact: true},
	{name: "state_bytes_per_rank", unit: "bytes", bound: 0.001, exact: true},
	{name: "loss_final", unit: "loss", bound: 0.2, exact: true},
}

var perLayer = []metricDef{
	{name: "tensor.matmul_ns_per_mac", unit: "ns/mac"},
	{name: "tensor.matmul_transa_ns_per_mac", unit: "ns/mac"},
	{name: "tensor.matmul_transb_ns_per_mac", unit: "ns/mac"},
	{name: "nn.forward_ms", unit: "ms"},
	{name: "autograd.backward_ms", unit: "ms"},
	{name: "autograd.alloc_mb_per_step", unit: "MB"},
	{name: "local.step_ms_p50", unit: "ms"},
	{name: "optim.step_ms", unit: "ms"},
	{name: "wrap.forward_ms", unit: "ms"},
	{name: "wrap.backward_ms", unit: "ms"},
	{name: "fsdp.gathers_per_step", unit: "count"},
	{name: "fsdp.reduces_per_step", unit: "count"},
	{name: "fsdp.peak_param_bytes", unit: "bytes"},
	{name: "fsdp.peak_grad_bytes", unit: "bytes"},
	{name: "reduce.buckets", unit: "count"},
	{name: "reduce.overhead_ms", unit: "ms"},
	{name: "reduce.engine_cycle_ms", unit: "ms"},
	{name: "reduce.engine_cycle_alloc_mb", unit: "MB"},
	{name: "comm.calls_per_step.allreduce", unit: "count"},
	{name: "comm.calls_per_step.reduce_scatter_v", unit: "count"},
	{name: "comm.calls_per_step.all_gather_v", unit: "count"},
	{name: "comm.calls_per_step.compressed", unit: "count"},
	{name: "comm.calls_per_step.broadcast", unit: "count"},
	{name: "comm.elems_per_step.allreduce", unit: "count"},
	{name: "comm.elems_per_step.reduce_scatter_v", unit: "count"},
	{name: "comm.elems_per_step.all_gather_v", unit: "count"},
	{name: "comm.elems_per_step.compressed", unit: "count"},
	{name: "comm.elems_per_step.broadcast", unit: "count"},
	{name: "comm.busy_ms_per_step", unit: "ms"},
	{name: "comm.exposed_wait_ms", unit: "ms"},
	{name: "comm.fwd_exposed_wait_ms", unit: "ms"},
	{name: "comm.hidden_frac", unit: "ratio", higher: true},
	{name: "comm.allreduce_ms", unit: "ms"},
	{name: "comm.allreduce_alloc_mb", unit: "MB"},
	{name: "comm.reduce_scatter_v_ms", unit: "ms"},
	{name: "comm.all_gather_v_ms", unit: "ms"},
	{name: "comm.fp16_allreduce_ms", unit: "ms"},
	{name: "transport.frames_per_step", unit: "count"},
	{name: "transport.bytes_per_step", unit: "bytes"},
	{name: "transport.send_ms_per_step", unit: "ms"},
	{name: "transport.recv_ms_per_step", unit: "ms"},
	{name: "link.hold_ms_per_step", unit: "ms"},
	{name: "transport.pingpong_1m_ms", unit: "ms"},
	{name: "transport.pingpong_1m_alloc_mb", unit: "MB"},
	{name: "go.allocs_per_step", unit: "count"},
	{name: "go.gc_cycles_per_step", unit: "count"},
	{name: "go.gc_pause_ms_per_step", unit: "ms"},
	{name: "step.raw_ms_p50", unit: "ms"},
	{name: "step.p90_ms", unit: "ms"},
	{name: "step.rank_skew_ms", unit: "ms"},
	{name: "step.dist_overhead_ms", unit: "ms"},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "calib.kernel_ms", unit: "ms"},
	{name: "calib.busy_share", unit: "ratio"},
	{name: "train.loss_first", unit: "loss"},
	{name: "train.loss_step32", unit: "loss"},
	{name: "train.loss_final", unit: "loss"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rep *report) add(prefix string, defs []metricDef, res *result) {
	for _, d := range defs {
		rep.Metrics[prefix+d.name] = metricValue{res.values[d.name], d.unit}
	}
	rep.Attempted += res.attempted
	rep.Failed += res.failed()
	rep.Correct = rep.Failed == 0
}

func printText(defs []metricDef, res *result) {
	for _, d := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", d.name, res.values[d.name], d.unit)
	}
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
	fmt.Printf("  steps_attempted %d  steps_failed %d\n", res.attempted, res.failed())
	for _, f := range res.failures {
		fmt.Printf("  CHECK FAILED %s\n", f)
	}
}

// options are the command's flags. Link constants, world, model sizes
// and step counts are constants, not knobs; --seconds, which the driver
// passes, scales every workload's step count by the same factor.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     string
	traceOut  string
	jsonOnly  bool
	selfcheck bool
}

// measure runs the chosen workloads in the chosen trace modes and
// returns one report keyed "<workload>/<metric>", or by bare metric name
// when a single workload was asked for.
func measure(o options, chosen []*workload) (*report, map[string]*result, error) {
	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	e2e := map[string]*result{}
	for _, w := range chosen {
		steps := w.timedSteps(o.seconds)
		prefix := ""
		if len(chosen) > 1 {
			prefix = w.name + "/"
		}
		if !o.jsonOnly {
			fmt.Printf("workload %s (%s over %s, %d rows per rank, bucket cap %d bytes): %s\n",
				w.name, w.strategy, w.transport, w.batch, w.bucketCap, w.why)
		}
		if o.trace != "1" {
			res, err := runEndToEnd(w, o.seed, steps)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			e2e[w.name] = res
			rep.add(prefix, endToEnd, res)
			if !o.jsonOnly {
				fmt.Println(" end to end (tracing off):")
				printText(endToEnd, res)
			}
		}
		if o.trace != "0" {
			out := o.traceOut
			if out != "" && len(chosen) > 1 {
				out = strings.TrimSuffix(out, ".json") + "." + w.name + ".json"
			}
			res, err := runPerLayer(w, o.seed, steps, out)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.add(prefix, perLayer, res)
			if !o.jsonOnly {
				fmt.Println(" per layer (untraced reference window, traced window, local baseline, ladder):")
				printText(perLayer, res)
			}
		}
	}
	return rep, e2e, nil
}

// selfcheck runs the end-to-end suite twice back to back and fails when
// any metric of any workload differs between the two by more than its
// bound, or an exact metric by more than exactTolerance: a benchmark that
// cannot repeat itself cannot judge a change.
func selfcheck(o options, chosen []*workload) error {
	o.trace, o.jsonOnly = "0", true
	var runs [2]map[string]*result
	for i := range runs {
		_, e2e, err := measure(o, chosen)
		if err != nil {
			return err
		}
		runs[i] = e2e
	}
	bad := 0
	fmt.Printf("%-24s %-22s %14s %14s %9s %7s %7s\n", "workload", "metric", "first", "second", "rel.diff", "limit", "bound")
	for _, w := range chosen {
		for _, d := range endToEnd {
			a, b := runs[0][w.name].values[d.name], runs[1][w.name].values[d.name]
			diff := math.Abs(b-a) / math.Abs(a)
			limit := d.bound
			if d.exact {
				limit = exactTolerance
			}
			verdict := ""
			if diff > limit {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-24s %-22s %14.6g %14.6g %9.5f %7.4f %7.3f%s\n", w.name, d.name, a, b, diff, limit, d.bound, verdict)
		}
		if f := runs[0][w.name].failed() + runs[1][w.name].failed(); f > 0 {
			fmt.Printf("%-24s %d steps failed their checks\n", w.name, f)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bounds", bad)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload by name (default: all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for model initialisation, inputs and the teacher network")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "nominal length of the timed window: scales every workload's fixed step count")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run; both")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON")
	flag.BoolVar(&o.jsonOnly, "json", false, "print only the final JSON line")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end suite twice and compare the runs against the bounds")
	flag.Parse()

	// Go 1.24 ignores a container's CPU quota, so the load shape pins
	// its own parallelism: two ranks, two cores.
	runtime.GOMAXPROCS(world)

	chosen := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		chosen = []*workload{w}
	}
	if (o.trace != "0" && o.trace != "1" && o.trace != "both") || o.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// A hung collective must not outlive the driver's patience.
	budget := 170 * time.Second * time.Duration(len(chosen))
	if o.selfcheck {
		budget *= 2
	}
	watchdog := time.AfterFunc(budget, func() {
		fmt.Fprintln(os.Stderr, "benchmark: timed out")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if !o.jsonOnly {
		fmt.Printf("benchmark: %s nproc=%d GOMAXPROCS=%d world=%d seed=%d seconds=%d commit=%s\n",
			runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), world, o.seed, o.seconds, commit)
	}
	if o.selfcheck {
		if err := selfcheck(o, chosen); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, _, err := measure(o, chosen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
