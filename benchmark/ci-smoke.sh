#!/usr/bin/env bash
# All five workloads, both modes, on tiny inputs: shows every path of
# the benchmark still runs and checks. Measures nothing.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --smoke "$@"
