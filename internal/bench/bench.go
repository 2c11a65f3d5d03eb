// Package bench contains one experiment runner per table and figure of
// the paper's evaluation (plus the Fig 2 motivation curves). Each runner
// regenerates the corresponding rows/series and prints them;
// ARCHITECTURE.md ("Substitutions and the experiment index") maps
// experiment ids to runners.
package bench

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/models"
)

// workload pairs a model profile with the backends it is evaluated on.
type workload struct {
	profile *models.Profile
	caps    []int // bucket_cap_mb sweep values for Figs 7/8
}

// evaluationWorkloads returns the two models of Section 5 with their
// bucket sweeps (ResNet50: 0-50MB; BERT: 0-200MB, Fig 7 caption).
func evaluationWorkloads() []workload {
	return []workload{
		{profile: models.ResNet50(), caps: []int{0, 5, 10, 25, 50}},
		{profile: models.BERTLarge(), caps: []int{0, 5, 10, 25, 50, 100, 200}},
	}
}

var allBackends = []hw.Backend{hw.NCCLLike, hw.GlooLike}

// header prints an underlined section title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}

// runRanks runs fn for every rank of world on its own goroutine and
// returns the lowest rank's error.
func runRanks(world int, fn func(rank int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

func closeGroups(groups []comm.ProcessGroup) {
	for _, g := range groups {
		g.Close()
	}
}

// capBytes converts a bucket_cap_mb sweep value to the simulator's
// convention (0MB means per-parameter buckets).
func capBytes(mb int) int {
	if mb == 0 {
		return -1
	}
	return mb << 20
}

// SweepRow is one point of a modeled comparison of two AllReduces.
type SweepRow struct {
	// World is the number of GPUs.
	World int
	// Elems is the AllReduce payload in float32 elements.
	Elems int
	// A and B are the two AllReduces' modeled wall times, seconds.
	A, B float64
}

// Speedup returns A/B (>1 when B wins).
func (r SweepRow) Speedup() float64 { return r.A / r.B }

// Sweep prices one AllReduce of every payload at every world under a and
// under b, each given the payload's bytes and the world.
func Sweep(worlds, elemCounts []int, a, b func(nBytes, world int) float64) []SweepRow {
	rows := make([]SweepRow, 0, len(worlds)*len(elemCounts))
	for _, w := range worlds {
		for _, n := range elemCounts {
			rows = append(rows, SweepRow{World: w, Elems: n, A: a(4*n, w), B: b(4*n, w)})
		}
	}
	return rows
}

// nccl is the cluster's NCCL-profile AllReduce under algo over
// groupSizes (hw.Cluster.AllReduceSeconds), as Sweep takes it.
func nccl(c hw.Cluster, algo comm.Algorithm, groupSizes ...int) func(nBytes, world int) float64 {
	return func(nBytes, world int) float64 {
		return c.AllReduceSeconds(hw.NCCLLike, algo, nBytes, world, groupSizes...)
	}
}
