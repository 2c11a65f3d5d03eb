package bench

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/simnet"
)

// HierarchicalIterRow is one point of the end-to-end iteration
// comparison: ResNet50 on the simulated cluster with the DDP reducer's
// real bucket schedule, priced under both AllReduce models.
type HierarchicalIterRow struct {
	// World is the number of GPUs.
	World int
	// CapMB is the DDP bucket cap swept (bucket sizes change how much
	// of the hierarchy's per-op win survives overlap).
	CapMB int
	// FlatSeconds/HierSeconds are per-iteration latencies.
	FlatSeconds float64
	// HierSeconds is the hierarchical per-iteration latency.
	HierSeconds float64
}

// HierarchicalIterationSweep simulates overlapped ResNet50 iterations
// across world and bucket-cap values under both AllReduce cost models.
func HierarchicalIterationSweep(worlds, capsMB []int) ([]HierarchicalIterRow, error) {
	profile := models.ResNet50()
	var rows []HierarchicalIterRow
	for _, w := range worlds {
		for _, mb := range capsMB {
			cfg := simnet.Config{
				ParamSizes:       profile.Sizes(),
				ComputeIntensity: profile.ComputeIntensity,
				BucketCapBytes:   capBytes(mb),
				World:            w,
				Backend:          hw.NCCLLike,
				Device:           hw.GPU,
				Overlap:          true,
			}
			flat, err := simnet.SimulateIteration(cfg)
			if err != nil {
				return nil, err
			}
			cfg.Hierarchical = true
			hier, err := simnet.SimulateIteration(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, HierarchicalIterRow{
				World: w, CapMB: mb,
				FlatSeconds: flat.TotalSeconds, HierSeconds: hier.TotalSeconds,
			})
		}
	}
	return rows, nil
}

// HierarchicalAblation prints the topology-aware AllReduce comparison:
// the modeled cross-machine bandwidth recovery per collective, and what
// survives of it in overlapped end-to-end iterations. This is the
// quantitative case for comm.Hierarchical/comm.Auto (Section 6.1's
// NIC-sharing collapse, recovered by reducing within each server
// first).
func HierarchicalAblation(w io.Writer) error {
	c := hw.DefaultCluster()

	header(w, "Hierarchical AllReduce: one collective, flat ring vs hierarchical (NCCL profile)")
	fmt.Fprintf(w, "%-8s %12s %14s %14s %10s\n", "world", "elements", "flat (s)", "hier (s)", "speedup")
	for _, r := range Sweep([]int{8, 16, 32, 64, 128, 256}, []int{1 << 12, 1 << 18, 1 << 20, 1 << 24},
		nccl(c, comm.Ring), nccl(c, comm.Hierarchical)) {
		fmt.Fprintf(w, "%-8d %12d %14.6f %14.6f %9.2fx\n", r.World, r.Elems, r.A, r.B, r.Speedup())
	}
	fmt.Fprintln(w, "(worlds of <= 8 GPUs fit one server: the hierarchy is empty and the models agree)")

	header(w, "Hierarchical AllReduce: overlapped ResNet50 iterations, world x bucket cap")
	rows, err := HierarchicalIterationSweep([]int{8, 32, 128}, []int{5, 25, 100})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %8s %14s %14s %10s\n", "world", "cap MB", "flat (s)", "hier (s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %8d %14.4f %14.4f %9.2fx\n",
			r.World, r.CapMB, r.FlatSeconds, r.HierSeconds, r.FlatSeconds/r.HierSeconds)
	}
	return nil
}
