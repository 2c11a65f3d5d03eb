package optim

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
)

// ZeroSGD is a ZeRO-style (stage 1/2) sharded momentum-SGD optimizer,
// the alternative design the paper's Section 7 compares DDP against:
// instead of AllReducing full gradients and keeping full optimizer
// state on every rank, gradients are ReduceScattered so each rank owns
// the averaged gradients — and the momentum state — for only 1/world of
// the parameters; after updating its shard, each rank AllGathers the
// updated parameters. Communication volume matches ring AllReduce
// (reduce-scatter + all-gather), but optimizer memory drops by a factor
// of world, trading the extra coordination the paper describes.
//
// ZeroSGD replaces DDP for the gradient synchronization step: use it on
// a bare model whose replicas start identical, and call Step after each
// local backward pass.
type ZeroSGD struct {
	LR       float32
	Momentum float32

	pg     comm.ExtendedGroup
	params []*nn.Parameter

	total    int // unpadded flat length
	shardLen int // padded per-rank shard length
	flat     []float32
	shardAvg []float32
	velocity []float32 // this rank's shard only
	gathered [][]float32
}

// NewZeroSGD builds a sharded optimizer over the model's parameters.
// All ranks must construct it identically. The process group must
// support the extended collectives (mesh-backed groups do).
func NewZeroSGD(params []*nn.Parameter, pg comm.ProcessGroup, lr float32) (*ZeroSGD, error) {
	eg, ok := pg.(comm.ExtendedGroup)
	if !ok {
		return nil, fmt.Errorf("optim: process group does not support ReduceScatter/AllGather")
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("optim: no parameters")
	}
	total := 0
	for _, p := range params {
		total += p.Value.Size()
	}
	world := pg.Size()
	shardLen := (total + world - 1) / world
	z := &ZeroSGD{
		LR:       lr,
		pg:       eg,
		params:   params,
		total:    total,
		shardLen: shardLen,
		flat:     make([]float32, shardLen*world),
		shardAvg: make([]float32, shardLen),
		velocity: make([]float32, shardLen),
		gathered: make([][]float32, world),
	}
	for i := range z.gathered {
		z.gathered[i] = make([]float32, shardLen)
	}
	return z, nil
}

// ShardBytes returns the per-rank optimizer state size in bytes — the
// quantity ZeRO shrinks by a factor of world.
func (z *ZeroSGD) ShardBytes() int { return 4 * z.shardLen }

// Step reduces gradients across ranks, applies momentum SGD to this
// rank's parameter shard, and AllGathers the updated parameters so all
// replicas stay identical. Parameters with nil gradients contribute
// zeros (their averaged gradient may still be non-zero if other ranks
// produced one).
func (z *ZeroSGD) Step() error {
	// Flatten local gradients (zeros where absent).
	off := 0
	for _, p := range z.params {
		n := p.Value.Size()
		if p.Grad != nil {
			copy(z.flat[off:off+n], p.Grad.Data())
		} else {
			for i := off; i < off+n; i++ {
				z.flat[i] = 0
			}
		}
		off += n
	}
	for i := z.total; i < len(z.flat); i++ {
		z.flat[i] = 0 // padding
	}

	// Average this rank's gradient shard across all ranks.
	if err := z.pg.ReduceScatter(z.shardAvg, z.flat, comm.Avg).Wait(); err != nil {
		return fmt.Errorf("optim: zero reduce-scatter: %w", err)
	}

	// Momentum update on the owned shard of the flattened parameters.
	rank := z.pg.Rank()
	shardStart := rank * z.shardLen
	shard := z.flatParams(shardStart)
	ShardedMomentumStep(shard, z.shardAvg, z.velocity, z.LR, z.Momentum, 0)

	// Publish updated shards to everyone.
	if err := z.pg.AllGather(z.gathered, shard).Wait(); err != nil {
		return fmt.Errorf("optim: zero all-gather: %w", err)
	}
	for r := 0; r < z.pg.Size(); r++ {
		z.writeFlatParams(r*z.shardLen, z.gathered[r])
	}
	return nil
}

// ZeroGrad clears all parameter gradients.
func (z *ZeroSGD) ZeroGrad() {
	for _, p := range z.params {
		p.ZeroGrad()
	}
}

// flatParams reads the parameter values at flat offsets
// [start, start+shardLen) into a fresh slice (padding reads as zero).
func (z *ZeroSGD) flatParams(start int) []float32 {
	out := make([]float32, z.shardLen)
	z.forEachOverlap(start, func(i int, pdata []float32, j int) {
		out[i] = pdata[j]
	})
	return out
}

// writeFlatParams stores vals back into the parameters at flat offsets
// [start, start+shardLen); padding positions are ignored.
func (z *ZeroSGD) writeFlatParams(start int, vals []float32) {
	z.forEachOverlap(start, func(i int, pdata []float32, j int) {
		pdata[j] = vals[i]
	})
}

// forEachOverlap visits every (shard index, parameter storage, element
// index) triple where the shard window [start, start+shardLen)
// intersects the concatenated parameter vector.
func (z *ZeroSGD) forEachOverlap(start int, visit func(i int, pdata []float32, j int)) {
	end := start + z.shardLen
	off := 0
	for _, p := range z.params {
		n := p.Value.Size()
		lo, hi := max(start, off), min(end, off+n)
		if lo < hi {
			pdata := p.Value.Data()
			for g := lo; g < hi; g++ {
				visit(g-start, pdata, g-off)
			}
		}
		off += n
		if off >= end {
			break
		}
	}
}
