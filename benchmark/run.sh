#!/usr/bin/env bash
# Builds the benchmark package from source (offline, release) and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds 15 --trace <0|1>
#       one run of one workload; the last line of standard output is the
#       result object BENCHMARK.json's driver reads
#   bash benchmark/run.sh [--seed <n>] [--trace] [--repeat <N>]
#       every workload, each in its own process, one after the other
#
# Run from anywhere: paths are resolved against this file. Build products
# go to $CARGO_TARGET_DIR (default `.bench_build` at the checkout root),
# run artefacts to `benchmark/out/`; nothing is written outside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export FATHOM_BENCH_OUT="$here/out"
# Cargo reports to standard error, so standard output stays the harness's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/fathom-benchmark" "$@"
