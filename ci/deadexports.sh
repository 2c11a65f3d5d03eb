#!/bin/sh
# deadexports.sh — CI gate: internal/comm and internal/transport export
# only what something calls.
#
# A top-level exported `func X` or `type X` of either package must be
# named, as `comm.X` or `transport.X`, by at least one non-test Go file
# outside the package's own directory — another internal/ package,
# cmd/, examples/ or the benchmark/ module. One that is not fails the
# build, unless ci/deadexports.allow lists it as `pkg.X` followed by a
# one-line reason.
#
# Like checkdoc.sh this is a grep-grade approximation by design (POSIX
# shell, no build step): methods, vars and consts are not scanned, and
# a package imported under another name would be missed.
set -eu

cd "$(dirname "$0")/.."

allow=ci/deadexports.allow
fail=0
for pkg in comm transport; do
    dir=internal/$pkg
    names=$(ls "$dir"/*.go | grep -v '_test\.go$' |
        xargs sed -n -E 's/^(func|type) ([A-Z][A-Za-z0-9_]*).*/\2/p' | sort -u)
    callers=$(find benchmark cmd examples internal -name '*.go' ! -name '*_test.go' ! -path "$dir/*")
    for name in $names; do
        if grep -q "^$pkg\.$name[[:space:]]" "$allow"; then
            continue
        fi
        if ! grep -qE "(^|[^A-Za-z0-9_])$pkg\.$name([^A-Za-z0-9_]|\$)" $callers; then
            echo "$pkg.$name is exported but no non-test file outside $dir names it" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "deadexports: delete the export, unexport it, or allowlist it with a reason" >&2
    exit 1
fi
echo "deadexports: every exported func and type of comm and transport has a caller"
