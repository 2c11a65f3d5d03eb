// Package bench contains one experiment runner per table and figure of
// the paper's evaluation (plus the Fig 2 motivation curves). Each runner
// regenerates the corresponding rows/series and prints them;
// ARCHITECTURE.md ("Substitutions and the experiment index") maps
// experiment ids to runners.
package bench

import (
	"fmt"
	"io"

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

// capBytes converts a bucket_cap_mb sweep value to the simulator's
// convention (0MB means per-parameter buckets).
func capBytes(mb int) int {
	if mb == 0 {
		return -1
	}
	return mb << 20
}
