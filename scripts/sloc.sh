#!/usr/bin/env bash
# Non-test Rust source lines per crate: every `crates/*/src/**/*.rs`, blank
# and comment-only lines left out, `#[cfg(test)]` items left out (the tree
# is rustfmt-formatted, so a test module ends at the next `}` in column 0).
# ROADMAP item 3 tracks size the way the benchmark tracks time: CI prints
# this table at the end of the build job, EXPERIMENTS.md keeps the points.
#
# Usage: scripts/sloc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1              { pending = 0; skipping = 0 }
        skipping              { if (/^}/) skipping = 0; next }
        /^#\[cfg\(test\)\]/   { pending = 1; next }
        pending               { pending = 0; if (/^(pub )?mod .*\{$/) skipping = 1; next }
        /^[[:space:]]*(\/\/|$)/ { next }
                              { n++ }
        END                   { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
printf '%-12s %8s\n' crate sloc
for src in crates/*/src; do
    n=$(count "$src")
    total=$((total + n))
    printf '%-12s %8d\n' "$(basename "$(dirname "$src")")" "$n"
done
printf '%-12s %8d\n' total "$total"
