#!/usr/bin/env bash
# Non-test Rust source lines per crate: every `crates/*/src/**/*.rs`, and
# the root package's `src/**/*.rs` (library and CLI) as `root`, blank
# and comment-only lines left out, `#[cfg(test)]` items left out (the tree
# is rustfmt-formatted, so a test module ends at the next line that is `}`
# alone; a raw string that ends `}"#;` in column 0 does not end it).
# ROADMAP item 3 tracks size the way the benchmark tracks time: CI prints
# this table at the end of the build job, EXPERIMENTS.md keeps the points.
# The vendored dependency stand-ins (`vendor/*/src`, same rules) print as
# one `vendor` row after `total`, outside it, so the total stays on the
# scale of the earlier points.
#
# Usage: scripts/sloc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1              { pending = 0; skipping = 0 }
        skipping              { if (/^}[[:space:]]*$/) skipping = 0; next }
        /^#\[cfg\(test\)\]/   { pending = 1; next }
        pending               { pending = 0; if (/^(pub )?mod .*\{$/) skipping = 1; next }
        /^[[:space:]]*(\/\/|$)/ { next }
                              { n++ }
        END                   { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
printf '%-12s %8s\n' crate sloc
for src in crates/*/src src; do
    n=$(count "$src")
    total=$((total + n))
    name=$(basename "$(dirname "$src")")
    [ "$src" = src ] && name=root
    printf '%-12s %8d\n' "$name" "$n"
done
printf '%-12s %8d\n' total "$total"
printf '%-12s %8d\n' vendor "$(count vendor/*/src)"
