#!/bin/sh
# bench_smoke.sh — CI gate: the benchmark module vets and its tests pass.
#
# benchmark/ is a module of its own (replace repro => ../), so the root
# `go vet ./...` and `go test ./...` never reach it. Its tests train
# every workload for three steps, untraced and traced, under the checks
# of a real run: replicas bitwise identical, ZeRO-3 on DDP's trajectory,
# the decorators' byte and frame counts equal to the program's own. A
# change below it (a tensor kernel, a fold, an optimizer body) that bends
# a trajectory fails here although tier-1 is green.
set -eu

cd "$(dirname "$0")/.."

go vet -C benchmark ./...
go test -C benchmark -timeout 300s ./...
