#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#   build (release) -> integration tests -> crate unit tests -> lint
#   (warnings are errors) -> docs -> the benchmark harness against the
#   crates' API -> the harness's own unit tests -> the three serving
#   smokes through the binary's argument path -> the runtime protocols
#   in release, oversubscribed
#
# Every property is stated once, as a test: bitwise serial == parallel,
# fused == unfused, resumed == uninterrupted, batched == alone, the
# arena's steady state and the bf16 precision gate live under tests/ and
# the crates' tests, so the `test` and `unit` stages run them.
#
# Each stage runs under `stage <name> <cmd...>`: on failure the gate
# stops immediately and prints the failing stage's name on stderr, so CI
# logs point at the broken layer without scrollback archaeology.
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
  local name="$1"
  shift
  local rc=0
  "$@" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "tier1: stage '${name}' failed (exit ${rc})" >&2
    exit "$rc"
  fi
}

stage build cargo build --workspace --release
# `cargo test -q` at the workspace root runs only the umbrella crate's
# tests/*.rs; the crates' own unit and property tests (every pinned
# report fixture among them) are the `unit` stage.
stage test cargo test -q
stage unit cargo test -q --workspace --exclude fathom-suite
stage clippy cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc warnings are errors too, so a deleted item cannot leave a
# dangling intra-doc link behind. Links to private items stay allowed:
# module docs name the private functions that implement them.
stage doc env RUSTDOCFLAGS="-D warnings -A rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps --lib -q
# The benchmark package (benchmark/, its own lock file) compiles against
# the crates' public API: type-check it, tests included, so an API change
# that breaks the harness fails here rather than at the next benchmark
# run. `--locked` keeps its lock file as it is.
stage bench-api env CARGO_TARGET_DIR=.bench_build cargo check --offline --locked -q \
  --manifest-path benchmark/Cargo.toml --all-targets
# Its own unit tests: the catalogue matches BENCHMARK.json, the
# nearest-rank quantiles, the result object's shape.
stage bench-unit env CARGO_TARGET_DIR=.bench_build cargo test --offline --locked -q \
  --manifest-path benchmark/Cargo.toml

# Serving smoke: the batcher, admission control, and report must survive a
# real open-loop run end to end.
stage serve-bench ./target/release/fathom serve-bench alexnet --rps 50 --duration 1 --seed 7

# Closed-loop faulted smoke (the README's own example): the closed loop
# of `serve_cluster` on a one-model, one-shard fleet and the supervisor's
# crash -> requeue -> recover path, two replicas under an injected crash.
stage serve-bench-closed ./target/release/fathom serve-bench memnet --clients 4 --requests 32 \
  --replicas 2 --fault-plan "seed=7;replica0@1=crash"

# Fleet smoke: two models over two shards each on one runtime, a mixed
# SLO load and a Standard deadline from the command line.
stage serve-bench-fleet ./target/release/fathom serve-bench memnet,autoenc --shards 2 \
  --slo-mix 50,30,20 --rps 200 --duration 0.5 --deadline-ms 20

# Oversubscription: the runtime's own protocols (spin-then-park
# workers, barriers that spin for their last chunk) in the release build
# the benchmarks run, with 8 workers on the 2-core CI host, through the
# test files that drive the pool hardest: every workload's serial ==
# parallel bits, the allocation-free steady state, bf16 at 4 workers,
# the trainer's background snapshot writer running beside the workers
# (kill/resume/torn-snapshot recovery, and snapshot bytes pinned through
# deepq's replay-ring wrap, which needs release speed), the 16 f32
# checkpoints pinned on both drivers, the copy pins (steady steps of
# every workload share values instead of copying them, on both drivers),
# fused == unfused on all eight workloads in the build the benchmark
# runs (its GEMM writeback runs the epilogue only under fusion), the
# Fig. 3 op-time share floors, the class C and D kernels against
# their one-element-at-a-time oracles at widths 1, 2 and 8, and serving:
# each batch on the smallest of a replica's graphs, which all share one
# weight set and one random stream, with the bits of the padded graph.
# A spin loop that starves the very thread it is waiting for shows up
# here as a hung stage, not in production.
stage runtime-oversubscribed env FATHOM_WORKERS=8 cargo test --release -q -p fathom-suite \
  -p fathom-tensor --test scheduler --test precision --test training --test snapshots \
  --test checkpoints --test copies --test fusion --test profiles --test elementwise_properties \
  --test serving
