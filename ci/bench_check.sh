#!/bin/sh
# bench_check.sh — gate the benchmark summaries the comm suite writes
# to the repository root (BENCH_allreduce.json, BENCH_compression.json)
# and the sharding ablation's BENCH_sharding.json (regenerate with
# `ddpbench -exp sharding`).
#
# Performance contracts asserted against the freshly generated
# records:
#
#   1. Double binary trees beat Ring at small payloads. For the TCP
#      mesh at world 8, the doubletree p50 must be strictly below the
#      ring p50 at 1024 and 4096 elements. Measured margins are
#      2.4-2.9x, so a strict inequality is a loose gate even at the CI
#      runner's -benchtime=1x.
#
#   2. The compressed leader ring actually compresses the wire. The
#      fp16 hierarchical run's cross-host bytes/op must sit within
#      [1.8, 2.2]x below the uncompressed hierarchical run's. The byte
#      count is deterministic (measured ratio 2.00003); the band only
#      absorbs future framing tweaks.
#
#   3. ZeRO-3 actually shards memory. At world 4, its persistent
#      per-rank parameter+optimizer bytes must sit within (1/4 + 5%)
#      of the replicated DDP row's, its peak parameter residency must
#      stay strictly below the full model (no rank ever holds every
#      parameter), every sharded (ZeRO-2 and ZeRO-3) row's peak must
#      stay within the memory bound its gather plan promises
#      (budget_param_bytes), and every sharded row must have reproduced
#      the DDP trajectory bitwise.
#
# Requires jq. Run after `go test -bench . ...` has refreshed the
# JSON files (CI's "Bench smoke" step).

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
allreduce="$root/BENCH_allreduce.json"

fail() {
	echo "bench_check: $*" >&2
	exit 1
}

[ -f "$allreduce" ] || fail "missing $allreduce (run the comm benchmarks first)"

ver=$(jq -r '.schema_version' "$allreduce")
[ "$ver" = "2" ] || fail "BENCH_allreduce.json schema_version = $ver, want 2"

# p50 of a tcp world-8 row for a given algorithm and element count.
p50() {
	jq -r --arg algo "$1" --argjson elems "$2" '
		[.records[]
		 | select(.transport == "tcp" and .world == 8
		          and .algorithm == $algo and .elems == $elems
		          and (.codec // "") == "")
		 | .hist_p50_ns][0] // "missing"' "$allreduce"
}

for elems in 1024 4096; do
	ring=$(p50 ring "$elems")
	dtree=$(p50 doubletree "$elems")
	[ "$ring" != "missing" ] || fail "no tcp world-8 ring row at $elems elems"
	[ "$dtree" != "missing" ] || fail "no tcp world-8 doubletree row at $elems elems"
	ok=$(jq -n --argjson r "$ring" --argjson d "$dtree" '$d < $r')
	[ "$ok" = "true" ] || fail "doubletree p50 ($dtree ns) not below ring p50 ($ring ns) at $elems elems"
	echo "bench_check: doubletree p50 $dtree ns < ring p50 $ring ns at $elems elems"
done

# Cross-host bytes/op of the hierarchical (leader-ring) benchmark rows.
crossbytes() {
	jq -r --arg codec "$1" '
		[.records[]
		 | select(.transport == "tcp" and .world == 8
		          and .algorithm == "hierarchical" and .elems == 131072
		          and (.codec // "") == $codec)
		 | .cross_host_bytes_per_op][0] // "missing"' "$allreduce"
}

raw=$(crossbytes "")
fp16=$(crossbytes "fp16")
[ "$raw" != "missing" ] || fail "no uncompressed hierarchical cross-host row"
[ "$fp16" != "missing" ] || fail "no fp16 hierarchical cross-host row"
ok=$(jq -n --argjson r "$raw" --argjson c "$fp16" '($r / $c) >= 1.8 and ($r / $c) <= 2.2')
[ "$ok" = "true" ] || fail "fp16 cross-host ratio $raw/$fp16 outside [1.8, 2.2]"
echo "bench_check: fp16 leader ring cross-host ratio $(jq -n --argjson r "$raw" --argjson c "$fp16" '$r / $c') within [1.8, 2.2]"

# --- sharding memory gate (BENCH_sharding.json) ------------------------------

sharding="$root/BENCH_sharding.json"
[ -f "$sharding" ] || fail "missing $sharding (run: ddpbench -exp sharding)"

sver=$(jq -r '.schema_version' "$sharding")
[ "$sver" = "2" ] || fail "BENCH_sharding.json schema_version = $sver, want 2"

# Persistent per-rank state (param shard + optimizer shard) of a
# strategy's world-4 row.
state() {
	jq -r --arg strategy "$1" '
		[.records[]
		 | select(.strategy == $strategy and .world == 4)
		 | .shard_param_bytes + .optimizer_bytes][0] // "missing"' "$sharding"
}

ddp_state=$(state ddp)
z3_state=$(state zero3)
[ "$ddp_state" != "missing" ] || fail "no ddp world-4 sharding row"
[ "$z3_state" != "missing" ] || fail "no zero3 world-4 sharding row"
ok=$(jq -n --argjson d "$ddp_state" --argjson z "$z3_state" '$z <= (0.25 + 0.05) * $d')
[ "$ok" = "true" ] || fail "zero3 world-4 param+opt bytes ($z3_state) exceed (1/4+5%) of DDP's ($ddp_state)"
echo "bench_check: zero3 world-4 param+opt $z3_state B <= (1/4+5%) x DDP $ddp_state B"

peak_ok=$(jq -r '
	[.records[] | select(.strategy == "zero3" and .world == 4)
	 | (.peak_param_bytes < .full_param_bytes)][0] // "missing"' "$sharding")
[ "$peak_ok" = "true" ] || fail "zero3 world-4 peak param bytes not below the full model"
echo "bench_check: zero3 world-4 peak param residency below the full model"

over=$(jq -r '[.records[] | select(.strategy != "ddp")
	| select(.budget_param_bytes == null or .peak_param_bytes > .budget_param_bytes)
	| "\(.strategy) world \(.world): peak \(.peak_param_bytes) > budget \(.budget_param_bytes)"] | join("; ")' "$sharding")
[ -z "$over" ] || fail "sharded peak param bytes above the plan's budget: $over"
echo "bench_check: every sharded row's peak param residency within its plan's budget"

nonbitwise=$(jq -r '[.records[] | select(.bitwise_vs_ddp | not)] | length' "$sharding")
[ "$nonbitwise" = "0" ] || fail "$nonbitwise sharding rows diverged from the DDP trajectory"
echo "bench_check: all sharding rows bitwise-identical to DDP"

echo "bench_check: OK"
