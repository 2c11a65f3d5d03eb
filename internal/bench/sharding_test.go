package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/reduce"
)

// TestShardingAblation runs the real-cluster ablation end to end and
// pins the properties ci/bench_check.sh gates on: ZeRO-3's persistent
// per-rank param+opt bytes collapse to ~1/world of DDP's, its peak
// parameter residency stays strictly below the full model (it trains a
// model no single rank ever fully holds), every sharded row's peak
// stays within its plan's budget at every world, ZeRO-2 persists
// ZeRO-3's shards but peaks at the full model, every sharded run matched
// the DDP trajectory bitwise, and every row's gathers and reduces are
// shIters steps of replica.Schedule's.
func TestShardingAblation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_sharding.json")
	t.Setenv("BENCH_SHARDING_OUT", out)
	var buf bytes.Buffer
	if err := ShardingAblation(&buf); err != nil {
		t.Fatalf("ShardingAblation: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var env shardingEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.SchemaVersion != shardingSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", env.SchemaVersion, shardingSchemaVersion)
	}
	if want := len(shardingWorlds) * 3; len(env.Records) != want {
		t.Fatalf("records = %d, want %d", len(env.Records), want)
	}
	find := func(strategy string, world int) shardingRecord {
		for _, r := range env.Records {
			if r.Strategy == strategy && r.World == world {
				return r
			}
		}
		t.Fatalf("no record for %s world %d", strategy, world)
		return shardingRecord{}
	}
	for _, r := range env.Records {
		if !r.BitwiseVsDDP {
			t.Fatalf("%s world %d not bitwise vs DDP", r.Strategy, r.World)
		}
		// A trained row's fsdp.Stats count what the replicas submitted:
		// shIters steps of the schedule simnet prices, whose gathers
		// carry a launch group's buckets each.
		step, _, err := shSchedule(r.Strategy, r.World)
		if err != nil {
			t.Fatal(err)
		}
		gathers, reduces := step.Buckets(reduce.AllGatherV), len(step)-step.Count(reduce.AllGatherV)
		if r.Gathers != shIters*gathers || r.Reduces != shIters*reduces {
			t.Fatalf("%s world %d: %d gathers and %d reduces, the schedule says %d and %d per step",
				r.Strategy, r.World, r.Gathers, r.Reduces, gathers, reduces)
		}
		if r.Strategy != "ddp" && (r.BudgetParamBytes == 0 || r.PeakParamBytes > r.BudgetParamBytes) {
			t.Fatalf("%s world %d: peak %d above the budget %d", r.Strategy, r.World, r.PeakParamBytes, r.BudgetParamBytes)
		}
	}
	const world = 4
	ddp := find("ddp", world)
	z3 := find("zero3", world)
	ddpState := float64(ddp.ShardParamBytes + ddp.OptimizerBytes)
	z3State := float64(z3.ShardParamBytes + z3.OptimizerBytes)
	if limit := (1.0/world + 0.05) * ddpState; z3State > limit {
		t.Fatalf("zero3 persistent state %v > (1/%d+eps) x DDP (%v)", z3State, world, limit)
	}
	if z3.PeakParamBytes >= z3.FullParamBytes {
		t.Fatalf("zero3 peak %d not below full model %d", z3.PeakParamBytes, z3.FullParamBytes)
	}
	z2 := find("zero2", world)
	if z2.OptimizerBytes >= ddp.OptimizerBytes {
		t.Fatalf("zero2 optimizer shard %d not below DDP %d", z2.OptimizerBytes, ddp.OptimizerBytes)
	}
	if z2.ShardParamBytes != z3.ShardParamBytes || z2.PeakParamBytes != z2.FullParamBytes {
		t.Fatalf("zero2 persists %d param bytes (zero3 %d) and peaks at %d (full model %d)",
			z2.ShardParamBytes, z3.ShardParamBytes, z2.PeakParamBytes, z2.FullParamBytes)
	}
}
