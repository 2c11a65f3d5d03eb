#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout. Nothing is downloaded; GOMODCACHE is set
# only so that the go command does not need a home directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
commit=unknown
if [ -d .git ]; then
	commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
go build -C benchmark -ldflags "-X main.commit=$commit" -o "$build/trainbench" .
exec "$build/trainbench" "$@"
