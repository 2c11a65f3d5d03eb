// Command ddpbench regenerates the tables and figures of the paper's
// evaluation (see ARCHITECTURE.md, "Substitutions and the experiment
// index"):
//
//	ddpbench -exp fig2        # AllReduce + backward cost curves
//	ddpbench -exp fig6        # latency breakdown, overlap speedups
//	ddpbench -exp fig7        # bucket-size sweep, 16 GPUs
//	ddpbench -exp fig8        # bucket-size sweep, 32 GPUs
//	ddpbench -exp fig9        # scalability to 256 GPUs
//	ddpbench -exp fig10       # skipping gradient synchronization
//	ddpbench -exp fig11       # convergence with no_sync (real training)
//	ddpbench -exp fig12       # round-robin process groups
//	ddpbench -exp table1      # taxonomy of distributed training schemes
//	ddpbench -exp hierarchical # flat-ring vs topology-aware hierarchical AllReduce
//	ddpbench -exp doubletree  # ring vs double binary trees; 2-level vs N-level hierarchy
//	ddpbench -exp all         # everything above
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig2, fig6, fig7, fig8, fig9, fig10, fig11, fig12, table1, ablation, hierarchical, doubletree, or all")
	iters := flag.Int("iters", 400, "iterations per simulated latency distribution")
	trainIters := flag.Int("train-iters", 350, "training iterations for the fig11 convergence runs")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text-format metrics at this address under /metrics while experiments run (empty: disabled)")
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

	runners := map[string]func(io.Writer) error{
		"fig2":         bench.Fig2,
		"fig6":         bench.Fig6,
		"fig7":         func(w io.Writer) error { return bench.Fig7(w, *iters) },
		"fig8":         func(w io.Writer) error { return bench.Fig8(w, *iters) },
		"fig9":         func(w io.Writer) error { return bench.Fig9(w, *iters/4) },
		"fig10":        func(w io.Writer) error { return bench.Fig10(w, *iters/4) },
		"fig11":        func(w io.Writer) error { return bench.Fig11(w, *trainIters) },
		"fig12":        bench.Fig12,
		"table1":       bench.Table1,
		"ablation":     bench.Ablation,
		"hierarchical": bench.HierarchicalAblation,
		"doubletree":   bench.DoubleTreeAblation,
		"sharding":     bench.ShardingAblation,
	}
	order := []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "table1", "ablation", "hierarchical", "doubletree", "sharding"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "ddpbench: unknown experiment %q (known: %s, all)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}
	for _, id := range selected {
		if err := runners[id](os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ddpbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
