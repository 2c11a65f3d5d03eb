// Command ddpbench regenerates the tables and figures of the paper's
// evaluation (see ARCHITECTURE.md, "Substitutions and the experiment
// index"):
//
//	ddpbench -exp fig6,fig7   # the named experiments, in the order given
//	ddpbench -exp all         # every experiment
//
// `ddpbench -h` lists the experiment ids and what each regenerates.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/metrics"
)

func main() {
	iters := flag.Int("iters", 400, "iterations per simulated latency distribution")
	trainIters := flag.Int("train-iters", 350, "training iterations for the fig11 convergence runs")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text-format metrics at this address under /metrics while experiments run (empty: disabled)")
	// The one list of experiments, in the order "all" runs them.
	experiments := []struct {
		id, about string
		run       func(io.Writer) error
	}{
		{"fig2", "AllReduce + backward cost curves", bench.Fig2},
		{"fig6", "latency breakdown, overlap speedups", bench.Fig6},
		{"fig7", "bucket-size sweep, 16 GPUs", func(w io.Writer) error { return bench.Fig7(w, *iters) }},
		{"fig8", "bucket-size sweep, 32 GPUs", func(w io.Writer) error { return bench.Fig8(w, *iters) }},
		{"fig9", "scalability to 256 GPUs", func(w io.Writer) error { return bench.Fig9(w, *iters/4) }},
		{"fig10", "skipping gradient synchronization", func(w io.Writer) error { return bench.Fig10(w, *iters/4) }},
		{"fig11", "convergence with no_sync (real training)", func(w io.Writer) error { return bench.Fig11(w, *trainIters) }},
		{"fig12", "round-robin process groups", bench.Fig12},
		{"table1", "taxonomy of distributed training schemes", bench.Table1},
		{"ablation", "overlap, bucket order, compression and stream ablations", bench.Ablation},
		{"hierarchical", "flat-ring vs topology-aware hierarchical AllReduce", bench.HierarchicalAblation},
		{"doubletree", "ring vs double binary trees; 2-level vs N-level hierarchy", bench.DoubleTreeAblation},
		{"sharding", "ZeRO-2/3 vs DDP on real clusters; writes BENCH_sharding.json", bench.ShardingAblation},
	}
	ids := make([]string, len(experiments))
	help := "comma-separated experiment ids, or all:"
	for i, e := range experiments {
		ids[i] = e.id
		help += fmt.Sprintf("\n  %-13s %s", e.id, e.about)
	}
	exp := flag.String("exp", "all", help)
	flag.Parse()

	if *metricsAddr != "" {
		msrv, err := metrics.Default().Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddpbench: metrics server: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("[metrics] serving http://%s/metrics\n", msrv.Addr())
	}

	selected := experiments
	if *exp != "all" {
		selected = nil
		for _, id := range strings.Split(*exp, ",") {
			i := slices.Index(ids, strings.TrimSpace(id))
			if i < 0 {
				fmt.Fprintf(os.Stderr, "ddpbench: unknown experiment %q (known: %s, all)\n", strings.TrimSpace(id), strings.Join(ids, ", "))
				os.Exit(2)
			}
			selected = append(selected, experiments[i])
		}
	}
	for _, e := range selected {
		if err := e.run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ddpbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
}
