#!/bin/sh
# checkdoc.sh — CI gate: every exported top-level identifier in the
# audited packages must carry a godoc comment.
#
# The check is a grep-grade approximation (by design — it runs anywhere
# a POSIX shell does, with no build step): a top-level declaration line
# beginning with `func X`, `type X`, `var X`, or `const X` for an
# exported X must be immediately preceded by a comment line (`//...`) or
# sit inside a commented declaration group. Grouped var/const blocks are
# given a pass when the group itself is documented.
#
# Audited packages: the fault-tolerance stack (elastic, store,
# transport), the checkpoint subsystem (ckpt), the collective layer
# (comm), the gradient-reduction engine (reduce), the update rule both
# of its clients apply (optim), its clients (ddp, fsdp), the seam over
# them (replica) and the one constructor of both
# (strategy), the hardware cost model (hw), the observability plane
# (metrics, trace), and the correctness tooling (lint, testutil,
# testutil/leakcheck, chaos) — the packages whose exported surface the
# architecture docs point into.
#
# It also caps the prose of CHANGES.md: an entry runs from its numbered
# `- PR N:` line to the next such line, and an entry numbered 26 or
# more may not exceed 6 KB — a measurement lives once, in a table, not
# in narrative. Older entries predate the cap.
set -eu

cd "$(dirname "$0")/.."

fail=0
for dir in internal/elastic internal/store internal/buffer internal/transport internal/ckpt internal/comm internal/reduce internal/optim internal/replica internal/strategy internal/ddp internal/fsdp internal/hw internal/metrics internal/trace internal/lint internal/testutil internal/testutil/leakcheck internal/chaos; do
    for f in "$dir"/*.go; do
        case "$f" in
        *_test.go | *'*'*) continue ;;
        esac
        out=$(awk '
            # Track whether the previous line was a comment (godoc).
            /^\/\// { prevcomment = 1; next }
            /^\t\/\// { prevcomment = 1; next }
            # Inside a var (/const ( group: an exported member needs its
            # own comment unless the group itself is documented.
            /^(var|const) \($/ { ingroup = 1; groupdoc = prevcomment; prevcomment = 0; next }
            /^\)/ { ingroup = 0; prevcomment = 0; next }
            ingroup == 1 {
                if ($0 ~ /^\t[A-Z]/ && !prevcomment && !groupdoc) printf "%d: %s\n", NR, $0
                prevcomment = 0; next
            }
            /^(func|type|var|const) [A-Z]/ {
                if (!prevcomment) printf "%d: %s\n", NR, $0
                prevcomment = 0; next
            }
            # Methods: func (recv T) Name — an exported method on an
            # exported receiver type needs a doc; methods implementing an
            # interface on an unexported type inherit the interface docs.
            /^func \([^)]*\) [A-Z]/ {
                recv = $0
                sub(/^func \([a-zA-Z0-9_]* \*?/, "", recv)
                if (recv ~ /^[A-Z]/ && !prevcomment) printf "%d: %s\n", NR, $0
                prevcomment = 0; next
            }
            { prevcomment = 0 }
        ' "$f")
        if [ -n "$out" ]; then
            echo "undocumented exported identifiers in $f:" >&2
            echo "$out" >&2
            fail=1
        fi
    done
done
if [ "$fail" -ne 0 ]; then
    echo "checkdoc: add godoc comments to the identifiers above" >&2
    exit 1
fi
echo "checkdoc: all exported identifiers documented"

long=$(LC_ALL=C awk '
    function done() { if (pr >= 26 && size > 6144) printf "entry %d: %d bytes\n", pr, size }
    /^- PR [0-9]+:/ { done(); pr = $3 + 0; size = 0 }
    { size += length($0) + 1 }
    END { done() }
' CHANGES.md)
if [ -n "$long" ]; then
    echo "checkdoc: CHANGES.md entries over the 6 KB cap:" >&2
    echo "$long" >&2
    exit 1
fi
echo "checkdoc: every capped CHANGES.md entry is within 6 KB"
