#!/bin/sh
# nofma.sh — CI gate: the numeric packages must not compile to fused
# multiply-adds on an architecture that has them, and their assembly
# must not contain one.
#
# Go may fuse x*y + z into one instruction that rounds once instead of
# twice, so the same source gives different float32 results on arm64
# than on amd64, and "bitwise equal to the reference run" would be a
# statement about one architecture. internal/tensor, internal/autograd
# and internal/optim — every float32 operation between a batch and an
# updated parameter — promise one rounding per operation everywhere
# (ARCHITECTURE.md, "Tensor kernels"); they keep that promise by writing
# every product that feeds an add or subtract as float32(x*y), which
# forbids the fusion. This script cross-compiles each of them for arm64
# and fails on any single-precision fused instruction. There is no list
# of known exceptions. The same cross-compile proves that the files which
# stand in for the amd64 assembly (internal/tensor/matmul_other.go and
# stream_other.go) build.
#
# Hand-written amd64 assembly — internal/tensor/matmul_amd64.s (mulAdd4,
# mulAdd1, dotRows) and stream_amd64.s (AddFloats, ScaleFloats,
# MomentumStep), and any *_amd64.s that joins them in the three packages
# — gets the same rule by grep: it multiplies with VMULPS and adds or
# subtracts with VADDPS or VSUBPS so that every product is rounded before
# it is used, as float32(x*y) is. Two more things are checked on it
# here because nothing else would notice: go vet's asmdecl (frame sizes
# and argument offsets against the Go declarations; vet runs for arm64
# too, over the fallback file), and that every routine executes
# VZEROUPPER right before each RET, since the Go code it returns to is
# legacy SSE and pays for dirty upper halves on every scalar instruction.
set -eu

cd "$(dirname "$0")/.."

fused='FMADDS|FMSUBS|FNMADDS|FNMSUBS'

# sites prints "count file:line" for every fused instruction in a package.
sites() {
	GOARCH=arm64 go build -gcflags=-S "./internal/$1" 2>&1 |
		grep -E "$fused" |
		sed -E 's/.*\(([^()]*\.go:[0-9]+)\).*/\1/' |
		sed "s|^$(pwd)/||" |
		sort | uniq -c
}

fail=0
for pkg in tensor autograd optim; do
	list=$(sites "$pkg")
	if [ -n "$list" ]; then
		echo "nofma: fused multiply-adds in internal/$pkg on arm64 (write the product as float32(x*y)):" >&2
		printf '%s\n' "$list" >&2
		fail=1
	fi
done
for f in internal/tensor/*_amd64.s internal/autograd/*_amd64.s internal/optim/*_amd64.s; do
	[ -e "$f" ] || continue
	if grep -nE 'VFN?M(ADD|SUB)' "$f" >&2; then
		echo "nofma: fused multiply-add in $f (multiply with VMULPS, then add with VADDPS)" >&2
		fail=1
	fi
	# Every RET must follow a VZEROUPPER, except in the routine that runs
	# CPUID: it is what finds out whether VZEROUPPER exists.
	awk -v file="$f" '
		{ sub(/\/\/.*/, "") }
		$1 == "TEXT" { fn = $2 }
		$1 == "CPUID" { probe[fn] = 1 }
		$1 == "RET" && prev != "VZEROUPPER" { bare[fn] = 1 }
		NF && $1 !~ /:$/ { prev = $1 }
		END {
			for (fn in bare) if (!probe[fn]) { print "nofma: " file ": " fn " returns without VZEROUPPER"; bad = 1 }
			exit bad
		}
	' "$f" >&2 || fail=1
done
go vet ./internal/tensor || fail=1
GOARCH=arm64 go vet ./internal/tensor || fail=1
[ "$fail" -eq 0 ] || exit 1
echo "nofma: no fused multiply-add in internal/tensor, internal/autograd, internal/optim on arm64 or in their amd64 assembly"
