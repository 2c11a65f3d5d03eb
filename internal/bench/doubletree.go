package bench

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/hw"
)

// DoubleTreeAblation prints the modeled raw-speed collective
// comparison: flat ring vs double binary trees across the payload
// bands of comm's Auto policy, and two-level vs three-level
// hierarchical scheduling on a pod/rack/host placement — each priced
// by walking the schedule comm runs.
func DoubleTreeAblation(w io.Writer) error {
	c := hw.DefaultCluster()

	header(w, "Double binary trees: one AllReduce, ring vs double tree (NCCL profile)")
	fmt.Fprintf(w, "%-8s %12s %14s %14s %10s\n", "world", "elements", "ring (s)", "dtree (s)", "speedup")
	for _, r := range Sweep([]int{8, 32, 64, 256}, []int{1 << 10, 1 << 12, 1 << 16, 1 << 20, 1 << 24},
		nccl(c, comm.Ring), nccl(c, comm.DoubleTree)) {
		fmt.Fprintf(w, "%-8d %12d %14.6f %14.6f %9.2fx\n", r.World, r.Elems, r.A, r.B, r.Speedup())
	}
	fmt.Fprintln(w, "(log-depth latency wins the <=4Ki band and deep worlds; a 32 KiB chunk crosses an edge every other round, up then down — ~4 hops' latency each — and loses the bandwidth band)")

	header(w, "N-level hierarchy: two-level vs pod/rack/host on 64 GPUs (4 pods x 2 racks x 8 GPUs)")
	fmt.Fprintf(w, "%-8s %12s %14s %14s %10s\n", "world", "elements", "2-level (s)", "3-level (s)", "speedup")
	for _, r := range Sweep([]int{64}, []int{1 << 10, 1 << 16, 1 << 20, 1 << 24},
		nccl(c, comm.Hierarchical), nccl(c, comm.Hierarchical, 2, 8)) {
		fmt.Fprintf(w, "%-8d %12d %14.6f %14.6f %9.2fx\n", r.World, r.Elems, r.A, r.B, r.Speedup())
	}
	fmt.Fprintln(w, "(the extra level sheds top-ring steps — a latency win; its full-buffer binomial hops pay it back on big buffers)")
	return nil
}
