package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/fsdp"
	"repro/internal/hw"
	"repro/internal/nn"
	"repro/internal/reduce"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// Sharding ablation fixture: a three-layer MLP so no single layer
// dominates the parameter budget (ZeRO-3's peak residency is shards
// plus one layer's materialized buckets, so a deep model shows the
// peak < full separation), with a bucket cap small enough to split
// every weight matrix across several buckets.
const (
	shIn, shH1, shH2, shOut = 32, 48, 48, 32
	shCap                   = 1 << 10 // 256 float32 elements per bucket
	shLR                    = 0.05
	shIters, shPerRank      = 4, 2
	shSeed                  = 11
)

var shardingWorlds = []int{1, 2, 4}

// shardingRecord is one (strategy, world) measurement of the sharding
// ablation, written to BENCH_sharding.json. Byte counts are real
// fsdp.Stats accounting from a trained in-process cluster (float32
// payload bytes, per rank); the modeled seconds come from the simnet
// cost rows for the same layout, and bitwise_vs_ddp records that the
// run's final parameters equal the DDP+SGD reference exactly.
type shardingRecord struct {
	Strategy           string  `json:"strategy"`
	World              int     `json:"world"`
	FullParamBytes     int     `json:"full_param_bytes"`
	ShardParamBytes    int     `json:"shard_param_bytes"`
	PeakParamBytes     int     `json:"peak_param_bytes"`
	BudgetParamBytes   int     `json:"budget_param_bytes,omitempty"`
	OptimizerBytes     int     `json:"optimizer_bytes"`
	PeakGradBytes      int     `json:"peak_grad_bytes"`
	Gathers            int     `json:"gathers"`
	Reduces            int     `json:"reduces"`
	ModeledStepSeconds float64 `json:"modeled_step_seconds"`
	BitwiseVsDDP       bool    `json:"bitwise_vs_ddp"`
}

// shardingEnvelope mirrors the comm bench JSON envelope so
// ci/bench_check.sh can verify one schema convention across files.
type shardingEnvelope struct {
	SchemaVersion int              `json:"schema_version"`
	Records       []shardingRecord `json:"records"`
}

const shardingSchemaVersion = 2

func shModel() nn.Module {
	rng := rand.New(rand.NewSource(shSeed))
	return nn.NewSequential(
		nn.NewLinear(rng, "fc1", shIn, shH1),
		nn.Tanh{},
		nn.NewLinear(rng, "fc2", shH1, shH2),
		nn.Tanh{},
		nn.NewLinear(rng, "fc3", shH2, shOut),
	)
}

func shSizes() []int {
	var sizes []int
	for _, p := range shModel().Parameters() {
		sizes = append(sizes, p.Value.Size())
	}
	return sizes
}

// shData builds the global batches; rank r of every run trains on rows
// [r*shPerRank, (r+1)*shPerRank), so all strategies see identical data.
func shData(world int) (batches, labels []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(23))
	batches = make([]*tensor.Tensor, shIters)
	labels = make([]*tensor.Tensor, shIters)
	for i := range batches {
		batches[i] = tensor.RandN(rng, 1, world*shPerRank, shIn)
		labels[i] = tensor.RandN(rng, 1, world*shPerRank, shOut)
	}
	return
}

func shRows(t *tensor.Tensor, rank int) *tensor.Tensor {
	cols := t.Dims(1)
	out := tensor.New(shPerRank, cols)
	copy(out.Data(), t.Data()[rank*shPerRank*cols:(rank+1)*shPerRank*cols])
	return out
}

// shTrain trains one (strategy, world) cluster and returns every rank's
// final flattened parameters — rank 0's under "ddp" is the oracle every
// sharded run must match bitwise — plus rank 0's fsdp accounting (zero
// for "ddp", whose layout is replicated by construction).
func shTrain(name string, world int, batches, labels []*tensor.Tensor) ([][]float32, fsdp.Stats, error) {
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer closeGroups(groups)
	reps := make([]replica.Replica, world)
	err := runRanks(world, func(rank int) error {
		r, err := strategy.Build(shModel(), groups[rank], strategy.Spec{Strategy: name, BucketCapBytes: shCap, LR: shLR})
		if err != nil {
			return err
		}
		reps[rank] = r
		for i := range batches {
			x := autograd.Constant(shRows(batches[i], rank))
			y := autograd.Constant(shRows(labels[i], rank))
			if err := r.Backward(autograd.MSELoss(r.Forward(x), y)); err != nil {
				return err
			}
			r.Step()
		}
		return nil
	})
	if err != nil {
		return nil, fsdp.Stats{}, err
	}
	// Stats BEFORE Materialize: the gather-everything below is a
	// comparison convenience, not part of the training footprint.
	var stats fsdp.Stats
	if f, ok := reps[0].(*fsdp.FSDP); ok {
		stats = f.Stats()
	}
	final := make([][]float32, world)
	err = runRanks(world, func(rank int) error {
		if err := reps[rank].Materialize(); err != nil {
			return err
		}
		for _, p := range reps[rank].Parameters() {
			final[rank] = append(final[rank], p.Value.Data()...)
		}
		return nil
	})
	return final, stats, err
}

// shSchedule is one step of strategy at world on the ablation's layout,
// as replica.Schedule lists it, and the layout: the replicas' packing,
// and the Sequential's children as units.
func shSchedule(strategy string, world int) (reduce.Step, *reduce.Assignment, error) {
	sizes, units := shSizes(), shModel().(*nn.Sequential).Children()
	counts := make([]int, len(units))
	for u, unit := range units {
		counts[u] = len(unit.Parameters())
	}
	assign, err := reduce.AssignBuckets(sizes, shCap, 4, reduce.ReverseOrder(len(sizes)))
	if err != nil {
		return nil, nil, err
	}
	step, err := replica.Schedule(strategy, assign, reduce.UnitBuckets(assign, counts), world)
	return step, assign, err
}

// shardingOutPath resolves where BENCH_sharding.json lands: the
// BENCH_SHARDING_OUT override, else the repository root (found by
// walking up to go.mod), else the working directory.
func shardingOutPath() string {
	if p := os.Getenv("BENCH_SHARDING_OUT"); p != "" {
		return p
	}
	dir, err := os.Getwd()
	if err != nil {
		return "BENCH_sharding.json"
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "BENCH_sharding.json")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "BENCH_sharding.json"
		}
		dir = parent
	}
}

// ShardingAblation trains real in-process clusters at world 1, 2, and
// 4 under replicated DDP, ZeRO-2, and ZeRO-3, records the per-rank
// memory accounting (fsdp.Stats) and gather/reduce traffic next to the
// simnet-modeled step time, verifies every sharded run reproduces the
// DDP trajectory bitwise, prints the table, and writes the records to
// BENCH_sharding.json for ci/bench_check.sh's memory gate.
func ShardingAblation(w io.Writer) error {
	header(w, "Ablation: sharded data parallel (ZeRO-2/3 vs replicated DDP)")
	sizes := shSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	fullBytes := 4 * total

	var records []shardingRecord
	fmt.Fprintf(w, "%-8s %6s %12s %12s %12s %12s %9s %9s %12s %9s\n",
		"strategy", "world", "param/rank", "param peak", "opt/rank", "grad peak", "gathers", "reduces", "modeled (s)", "bitwise")
	for _, world := range shardingWorlds {
		batches, labels := shData(world)
		var ref []float32 // rank 0 of the "ddp" row, trained first
		for _, strategy := range []string{"ddp", "zero2", "zero3"} {
			// The simnet cost rows (NCCL profile, overlap on) price the
			// time side of the trade the byte columns quantify.
			modeled, err := simnet.SimulateIteration(simnet.Config{
				ParamSizes:     sizes,
				BucketCapBytes: shCap,
				World:          world,
				Backend:        hw.NCCLLike,
				Device:         hw.GPU,
				Overlap:        true,
				Strategy:       strategy,
			})
			if err != nil {
				return err
			}
			rec := shardingRecord{
				Strategy:           strategy,
				World:              world,
				FullParamBytes:     fullBytes,
				ModeledStepSeconds: modeled.TotalSeconds,
			}
			final, stats, err := shTrain(strategy, world, batches, labels)
			if err != nil {
				return fmt.Errorf("%s world %d: %w", strategy, world, err)
			}
			if strategy == "ddp" {
				// Replicated layout, by construction: full parameters and
				// full momentum on every rank, and the schedule's
				// AllReduces every step.
				step, assign, err := shSchedule(strategy, world)
				if err != nil {
					return err
				}
				ref = final[0]
				stats = fsdp.Stats{
					ShardParamBytes: fullBytes,
					PeakParamBytes:  fullBytes,
					OptimizerBytes:  fullBytes,
					PeakGradBytes:   4 * slices.Max(assign.BucketElems),
					Gathers:         shIters * step.Buckets(reduce.AllGatherV),
					Reduces:         shIters * step.Count(reduce.AllReduce),
				}
			}
			rec.ShardParamBytes = stats.ShardParamBytes
			rec.PeakParamBytes = stats.PeakParamBytes
			rec.BudgetParamBytes = stats.BudgetParamBytes
			rec.OptimizerBytes = stats.OptimizerBytes
			rec.PeakGradBytes = stats.PeakGradBytes
			rec.Gathers = stats.Gathers
			rec.Reduces = stats.Reduces
			rec.BitwiseVsDDP = true
			for _, flat := range final {
				if !slices.Equal(flat, ref) {
					return fmt.Errorf("%s world %d diverged from the DDP reference", strategy, world)
				}
			}
			records = append(records, rec)
			fmt.Fprintf(w, "%-8s %6d %12d %12d %12d %12d %9d %9d %12.6f %9v\n",
				rec.Strategy, rec.World, rec.ShardParamBytes, rec.PeakParamBytes, rec.OptimizerBytes,
				rec.PeakGradBytes, rec.Gathers, rec.Reduces, rec.ModeledStepSeconds, rec.BitwiseVsDDP)
		}
	}

	out := shardingOutPath()
	data, err := json.MarshalIndent(shardingEnvelope{SchemaVersion: shardingSchemaVersion, Records: records}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", out, err)
	}
	fmt.Fprintf(w, "\nrecords written to %s\n", out)
	return nil
}
