package data

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func TestSyntheticDeterministic(t *testing.T) {
	a := NewSynthetic(1, 100, 16, 4)
	b := NewSynthetic(1, 100, 16, 4)
	for i := 0; i < 100; i++ {
		xa, la := a.Sample(i)
		xb, lb := b.Sample(i)
		if la != lb {
			t.Fatal("labels differ across identically-seeded datasets")
		}
		for j := range xa {
			if xa[j] != xb[j] {
				t.Fatal("features differ across identically-seeded datasets")
			}
		}
	}
	if a.Len() != 100 || a.Features() != 16 || a.Classes() != 4 {
		t.Fatal("metadata wrong")
	}
}

func TestSyntheticIsLearnable(t *testing.T) {
	// Nearest-prototype classification must beat chance by a wide
	// margin, otherwise Fig 11's convergence experiment is meaningless.
	d := NewSynthetic(2, 500, 32, 5)
	correct := 0
	for i := 0; i < d.Len(); i++ {
		x, label := d.Sample(i)
		best, bestDist := -1, float32(0)
		for c := 0; c < 5; c++ {
			var dist float32
			for j, v := range x {
				diff := v - d.prototypes[c][j]
				dist += diff * diff
			}
			if best == -1 || dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == label {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.9 {
		t.Fatalf("nearest-prototype accuracy %v, want > 0.9", acc)
	}
}

func TestDistributedSamplerPartitions(t *testing.T) {
	const n, world = 103, 4
	samplers := make([]*DistributedSampler, world)
	counts := make(map[int]int)
	perRank := 0
	for r := 0; r < world; r++ {
		s, err := NewDistributedSampler(n, r, world)
		if err != nil {
			t.Fatal(err)
		}
		s.SetEpoch(7)
		samplers[r] = s
		idx := s.Indices()
		if perRank == 0 {
			perRank = len(idx)
		}
		if len(idx) != perRank {
			t.Fatalf("rank %d got %d indices, others %d", r, len(idx), perRank)
		}
		for _, i := range idx {
			counts[i]++
		}
	}
	if perRank != samplers[0].PerRank() {
		t.Fatal("PerRank inconsistent with Indices")
	}
	// Every sample covered at least once (padding may duplicate a few).
	if len(counts) != n {
		t.Fatalf("covered %d of %d samples", len(counts), n)
	}
}

func TestDistributedSamplerEpochChangesOrder(t *testing.T) {
	s, _ := NewDistributedSampler(50, 0, 2)
	s.SetEpoch(0)
	e0 := s.Indices()
	s.SetEpoch(1)
	e1 := s.Indices()
	same := true
	for i := range e0 {
		if e0[i] != e1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different epochs must shuffle differently")
	}
}

func TestDistributedSamplerValidation(t *testing.T) {
	if _, err := NewDistributedSampler(10, 5, 4); err == nil {
		t.Fatal("rank out of range must error")
	}
	if _, err := NewDistributedSampler(0, 0, 1); err == nil {
		t.Fatal("empty dataset must error")
	}
}

// TestLoaderWrapsIntoNextEpoch: an epoch of 20 samples in batches of 6
// yields three batches, drops the short remainder, and the fourth
// batch is the head of epoch 1's shuffle.
func TestLoaderWrapsIntoNextEpoch(t *testing.T) {
	d := NewSynthetic(3, 40, 8, 3)
	s, _ := NewDistributedSampler(d.Len(), 0, 2) // 20 per rank
	l, err := NewLoader(d, s, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x, labels := l.Next()
		if x.Dims(0) != 6 || x.Dims(1) != 8 || len(labels) != 6 {
			t.Fatalf("batch shape %v, %d labels", x.Shape(), len(labels))
		}
	}
	ref, _ := NewDistributedSampler(d.Len(), 0, 2)
	ref.SetEpoch(1)
	x, labels := l.Next()
	for b, idx := range ref.Indices()[:6] {
		vec, lab := d.Sample(idx)
		if labels[b] != lab || !slices.Equal(x.Data()[b*8:(b+1)*8], vec) {
			t.Fatalf("batch 4 row %d is not epoch 1's sample %d", b, idx)
		}
	}
}

func TestLoaderRejectsBadBatch(t *testing.T) {
	d := NewSynthetic(3, 10, 4, 2)
	s, _ := NewDistributedSampler(d.Len(), 0, 2) // 5 per rank
	for _, batch := range []int{0, 6} {
		if _, err := NewLoader(d, s, batch); err == nil {
			t.Fatalf("batch %d must error", batch)
		}
	}
	if _, err := NewLoader(d, s, 5); err != nil {
		t.Fatalf("a batch of the whole shard: %v", err)
	}
}

func TestShardsDisjointWhenEvenlyDivisible(t *testing.T) {
	// With n divisible by world there is no padding, so rank shards must
	// partition the dataset exactly: every sample appears exactly once.
	const n, world = 120, 4
	counts := map[int]int{}
	for r := 0; r < world; r++ {
		s, err := NewDistributedSampler(n, r, world)
		if err != nil {
			t.Fatal(err)
		}
		s.SetEpoch(3)
		for _, idx := range s.Indices() {
			counts[idx]++
		}
	}
	if len(counts) != n {
		t.Fatalf("covered %d of %d samples", len(counts), n)
	}
	for idx, c := range counts {
		if c != 1 {
			t.Fatalf("sample %d appeared %d times", idx, c)
		}
	}
}

func TestAllRanksAgreeOnEpochPermutation(t *testing.T) {
	// The DDP contract: all ranks derive their shard from the same
	// epoch permutation, so the union of shards in rank-interleaved
	// order reconstructs one shared shuffle.
	const n, world = 8, 2
	shards := make([][]int, world)
	for r := 0; r < world; r++ {
		s, _ := NewDistributedSampler(n, r, world)
		s.SetEpoch(5)
		shards[r] = s.Indices()
	}
	seen := map[int]bool{}
	for i := 0; i < len(shards[0]); i++ {
		for r := 0; r < world; r++ {
			seen[shards[r][i]] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("interleaved shards saw %d distinct samples, want %d", len(seen), n)
	}
}

func TestLoaderAutoResets(t *testing.T) {
	d := NewSynthetic(4, 20, 4, 2)
	s, _ := NewDistributedSampler(d.Len(), 0, 1)
	l, _ := NewLoader(d, s, 5)
	_, labels := l.Next()
	ref, _ := NewDistributedSampler(d.Len(), 0, 1)
	for b, idx := range ref.Indices()[:5] {
		if _, lab := d.Sample(idx); labels[b] != lab {
			t.Fatalf("first batch row %d is not epoch 0's sample %d", b, idx)
		}
	}
}

// elasticBatch is the batch formula cmd/ddptrain wrote out before
// Coords, kept verbatim (with its constants as parameters) as the
// reference Coords.At must reproduce bit for bit.
func elasticBatch(step int64, rank, world, batch, features, classes int) (*tensor.Tensor, []int) {
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

func TestCoordsMatchElasticBatch(t *testing.T) {
	c := Coords{Batch: 16, Features: 64, Classes: 10}
	for _, at := range [][3]int{{0, 0, 1}, {20, 2, 3}, {59, 1, 2}, {1 << 20, 0, 4}} {
		x, labels := c.At(int64(at[0]), at[1], at[2])
		wx, wlabels := elasticBatch(int64(at[0]), at[1], at[2], 16, 64, 10)
		if !slices.Equal(x.Data(), wx.Data()) || !slices.Equal(labels, wlabels) {
			t.Fatalf("Coords.At%v differs from the reference batch", at)
		}
	}
}
