#!/bin/sh
# nofma.sh — CI gate: the numeric packages must not compile to fused
# multiply-adds on an architecture that has them.
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
# of known exceptions.
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
[ "$fail" -eq 0 ] || exit 1
echo "nofma: no fused multiply-add in internal/tensor, internal/autograd, internal/optim on arm64"
