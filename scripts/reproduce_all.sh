#!/usr/bin/env bash
# Regenerate every table/figure and extension study of the reproduction,
# in the order of EXPERIMENTS.md. Artifacts (JSON/SVG/REPORT.md) land in
# ./results. Mirrors the role of the paper artifact's Scripts/ directory
# (there per-cluster SLURM scripts; here one local run).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release

run() { echo; echo "### $*"; "${CARGO_TARGET_DIR:-target}/release/gaia-bench" "$@"; }

run fig3
run fig4
run fig5
run fig6
run table_flags
run speedup_production
run tuning_ablation
run spmv_labnotes
run precond_ablation
run matrix_stats
run roofline
run profile
run weak_scaling
run energy
run executors_projection
run solver_comparison
run sensitivity
run whatif
run normalization_study
run cpu_portability
run report_all

echo
echo "All artifacts written to ./results"
