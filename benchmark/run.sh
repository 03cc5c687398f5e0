#!/usr/bin/env bash
# Build the benchmark crate and run it. The driver calls
#   bash benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
# from the root of a checkout; without --workload all five workloads run,
# one process each. See README.md for --traced, --check and --smoke.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# An absolute target directory, so cargo and this script agree on it
# wherever they are started from.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# Build output goes to stderr: the last line of stdout is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" 1>&2
# glibc raises its mmap threshold as large blocks are freed, so whether a
# freed matrix copy goes back to the kernel depends on which thread freed
# what first: the peak RSS of served-mix read 36 or 44 MB from run to run.
# Start where that adjustment ends (its 32 MiB ceiling, trim at twice
# that): same speed on every workload, one peak RSS.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-33554432}"
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-67108864}"
exec "$target/release/gaia-benchmark" --home "$here" "$@"
