#!/bin/sh
# nofma.sh — CI gate: the matmul kernels must not compile to fused
# multiply-adds on an architecture that has them.
#
# Go may fuse x*y + z into one instruction that rounds once instead of
# twice, so the same source gives different float32 sums on arm64 than
# on amd64. internal/tensor/matmul.go promises one reduction order and
# one rounding per operation everywhere (ARCHITECTURE.md, "Tensor
# kernels"); it keeps that promise by writing every product as
# float32(x*y), which forbids the fusion. This script cross-compiles
# for arm64 and fails if any single-precision fused instruction is
# attributed to that file.
#
# The other numeric packages make no such promise yet. Their fused
# instructions are printed as the known list (5 in tensor outside
# matmul.go, 12 in autograd, 2 in optim when this gate was added) and
# do not fail the build.
set -eu

cd "$(dirname "$0")/.."

fused='FMADDS|FMSUBS|FNMADDS|FNMSUBS'
gate='internal/tensor/matmul.go'

# sites prints "count file:line" for every fused instruction in a package.
sites() {
	GOARCH=arm64 go build -gcflags=-S "./internal/$1" 2>&1 |
		grep -E "$fused" |
		sed -E 's/.*\(([^()]*\.go:[0-9]+)\).*/\1/' |
		sed "s|^$(pwd)/||" |
		sort | uniq -c
}

tensor=$(sites tensor)
bad=$(printf '%s\n' "$tensor" | grep -F "$gate:" || true)
if [ -n "$bad" ]; then
	echo "nofma: fused multiply-adds in $gate on arm64 (write the product as float32(x*y)):" >&2
	printf '%s\n' "$bad" >&2
	exit 1
fi

echo "nofma: no fused multiply-add in $gate on arm64"
echo "nofma: known fused sites elsewhere (not gated):"
for pkg in tensor autograd optim; do
	list=$(sites "$pkg")
	n=0
	[ -z "$list" ] || n=$(printf '%s\n' "$list" | awk '{s += $1} END {print s}')
	echo "  $pkg: $n"
	[ -z "$list" ] || printf '%s\n' "$list" | sed 's/^ */    /'
done
