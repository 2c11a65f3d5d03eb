// Package data provides deterministic synthetic datasets and the two
// batch sources every training loop draws from: Loader, which shards a
// dataset the way PyTorch's DistributedSampler does, and Coords, which
// derives each batch from (step, rank, world) alone.
//
// The MNIST-like dataset substitutes for the real MNIST download (the
// environment is offline; see ARCHITECTURE.md, "Substitutions and the
// experiment index"): each class has a fixed random
// prototype vector and samples are noisy copies, giving a genuinely
// learnable classification task whose loss curves expose the batch-size
// × no_sync × learning-rate interactions of the paper's Fig 11.
package data

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dataset is an indexed collection of labeled vectors.
type Dataset interface {
	// Sample returns the i-th feature vector and its class label. The
	// returned slice must not be modified.
	Sample(i int) ([]float32, int)
	// Features returns the feature dimensionality.
	Features() int
}

// Synthetic is a deterministic classification dataset: class prototypes
// drawn once from a seeded RNG, samples = prototype + per-sample noise.
type Synthetic struct {
	features, classes int
	prototypes        [][]float32
	samples           [][]float32
	labels            []int
}

// NewSynthetic builds n samples of the given dimensionality across
// `classes` classes, with moderate class overlap. The same seed always
// yields the same dataset, so every DDP rank can construct it locally
// and agree.
func NewSynthetic(seed int64, n, features, classes int) *Synthetic {
	return NewSyntheticNoise(seed, n, features, classes, 0.7)
}

// NewSyntheticNoise is NewSynthetic with an explicit per-sample noise
// level. Higher noise overlaps the classes and raises the achievable
// loss floor — the regime where the Fig 11(b) effect (large accumulated
// no_sync batches implicitly needing a smaller learning rate) becomes
// visible.
func NewSyntheticNoise(seed int64, n, features, classes int, noise float32) *Synthetic {
	rng := rand.New(rand.NewSource(seed))
	d := &Synthetic{features: features, classes: classes}
	d.prototypes = make([][]float32, classes)
	for c := range d.prototypes {
		proto := make([]float32, features)
		for i := range proto {
			proto[i] = float32(rng.NormFloat64())
		}
		d.prototypes[c] = proto
	}
	d.samples = make([][]float32, n)
	d.labels = make([]int, n)
	for i := range d.samples {
		c := rng.Intn(classes)
		s := make([]float32, features)
		for j := range s {
			s[j] = d.prototypes[c][j] + noise*float32(rng.NormFloat64())
		}
		d.samples[i] = s
		d.labels[i] = c
	}
	return d
}

// Len returns the number of samples.
func (d *Synthetic) Len() int { return len(d.samples) }

// Sample implements Dataset.
func (d *Synthetic) Sample(i int) ([]float32, int) { return d.samples[i], d.labels[i] }

// Features implements Dataset.
func (d *Synthetic) Features() int { return d.features }

// Classes returns the number of classes.
func (d *Synthetic) Classes() int { return d.classes }

// DistributedSampler partitions a dataset across ranks the way
// torch.utils.data.DistributedSampler does: every epoch all ranks
// shuffle the full index list with a shared epoch-derived seed, then
// rank r takes indices r, r+world, r+2·world, …; the list is padded so
// all ranks process the same number of samples (a DDP requirement —
// collectives would otherwise deadlock).
type DistributedSampler struct {
	n, rank, world int
	epoch          int64
}

// NewDistributedSampler creates a sampler over n samples for the given
// rank of world.
func NewDistributedSampler(n, rank, world int) (*DistributedSampler, error) {
	if world <= 0 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("data: invalid rank %d of world %d", rank, world)
	}
	if n <= 0 {
		return nil, fmt.Errorf("data: empty dataset")
	}
	return &DistributedSampler{n: n, rank: rank, world: world}, nil
}

// SetEpoch changes the shuffle seed; call it once per epoch with the
// same value on every rank.
func (s *DistributedSampler) SetEpoch(e int64) { s.epoch = e }

// PerRank returns how many samples each rank sees per epoch.
func (s *DistributedSampler) PerRank() int {
	return (s.n + s.world - 1) / s.world
}

// Indices returns this rank's sample indices for the current epoch.
func (s *DistributedSampler) Indices() []int {
	order := rand.New(rand.NewSource(1_000_003 + s.epoch)).Perm(s.n)
	// Pad by wrapping so every rank gets PerRank() indices.
	total := s.PerRank() * s.world
	out := make([]int, 0, s.PerRank())
	for i := s.rank; i < total; i += s.world {
		out = append(out, order[i%s.n])
	}
	return out
}

// Loader batches a dataset shard into tensors, epoch after epoch.
type Loader struct {
	ds      Dataset
	sampler *DistributedSampler
	batch   int

	epoch   int64
	indices []int
	cursor  int
}

// NewLoader creates a loader yielding batches of the given size from
// the sampler's shard, starting at epoch 0. A batch larger than the
// shard would never fill, so it is refused.
func NewLoader(ds Dataset, sampler *DistributedSampler, batch int) (*Loader, error) {
	if batch <= 0 || batch > sampler.PerRank() {
		return nil, fmt.Errorf("data: batch size %d, want 1 to the %d samples per rank", batch, sampler.PerRank())
	}
	l := &Loader{ds: ds, sampler: sampler, batch: batch}
	l.reset(0)
	return l, nil
}

// reset starts the given epoch.
func (l *Loader) reset(epoch int64) {
	l.epoch = epoch
	l.sampler.SetEpoch(epoch)
	l.indices = l.sampler.Indices()
	l.cursor = 0
}

// Next returns the next batch as a [batch, features] tensor and its
// labels. At an epoch's end the short remainder is dropped, so all
// ranks run the same number of equally-sized iterations, and the batch
// comes from the next epoch's shuffle.
func (l *Loader) Next() (x *tensor.Tensor, labels []int) {
	if l.cursor+l.batch > len(l.indices) {
		l.reset(l.epoch + 1)
	}
	feat := l.ds.Features()
	x = tensor.New(l.batch, feat)
	labels = make([]int, l.batch)
	for b := 0; b < l.batch; b++ {
		vec, lab := l.ds.Sample(l.indices[l.cursor+b])
		copy(x.Data()[b*feat:(b+1)*feat], vec)
		labels[b] = lab
	}
	l.cursor += l.batch
	return x, labels
}

// Coords is the batch source that needs no state: the batch a rank
// trains at a step is a pure function of (step, rank, world), so a
// world that changes size mid-run, a worker that joins, or a run
// resumed from a checkpoint re-derives exactly the batches an
// uninterrupted run would have drawn.
type Coords struct {
	Batch, Features, Classes int
}

// At returns the [Batch, Features] batch, uniform in [-1, 1), and its
// labels for rank of world at step.
func (c Coords) At(step int64, rank, world int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(step*1_000_003 + int64(rank)*10_007 + int64(world)*101))
	x := tensor.New(c.Batch, c.Features)
	d := x.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, c.Batch)
	for i := range labels {
		labels[i] = rng.Intn(c.Classes)
	}
	return x, labels
}
