#!/usr/bin/env bash
# Regenerates the three committed BENCH_*.json ablations from one command
# on one host, at one effort:
#
#   scripts/bench-refresh.sh
#
# Every ablation goes through crates/bench/src/measure.rs: FATHOM_WARMUP
# untimed steps, FATHOM_STEPS timed ones, FATHOM_REPEATS interleaved
# rounds per leg, median and inter-quartile distance over the rounds.
# The artifacts land in target/fathom-results/ and at the repository
# root; the human-readable tables in target/fathom-results/*.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

export FATHOM_WARMUP=1
export FATHOM_STEPS=4
export FATHOM_REPEATS=5

for bench in ablation_runtime ablation_precision gemm_scaling; do
  echo "== ${bench} (warmup ${FATHOM_WARMUP}, steps ${FATHOM_STEPS}, repeats ${FATHOM_REPEATS})"
  cargo bench -q -p fathom-bench --bench "${bench}"
done
