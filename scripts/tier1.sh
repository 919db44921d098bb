#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#   build (release) -> integration tests -> crate unit tests -> lint
#   (warnings are errors) -> the two serving smokes through the binary's
#   argument path -> the runtime protocols in release, oversubscribed
#
# Every property is stated once, as a test: bitwise serial == parallel,
# fused == unfused, resumed == uninterrupted, batched == alone, the
# arena's steady state and the precision gates live under tests/ and
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

# Serving smoke: the batcher, admission control, and report must survive a
# real open-loop run end to end.
stage serve-bench ./target/release/fathom serve-bench alexnet --rps 50 --duration 1 --seed 7

# Closed-loop faulted smoke (the README's own example): the single-model
# adapter's closed loop and the supervisor's crash -> requeue -> recover
# path on the one event loop, two replicas under an injected crash.
stage serve-bench-closed ./target/release/fathom serve-bench memnet --clients 4 --requests 32 \
  --replicas 2 --fault-plan "seed=7;replica0@1=crash"

# Oversubscription: the runtime's own protocols (spin-then-park
# workers, barriers that spin for their last chunk) in the release build
# the benchmarks run, with 8 workers on the 2-core CI host, through the
# two test files that drive the pool hardest: every workload's serial ==
# parallel bits, the allocation-free steady state, and bf16 at 4 workers.
# A spin loop that starves the very thread it is waiting for shows up
# here as a hung stage, not in production.
stage runtime-oversubscribed env FATHOM_WORKERS=8 cargo test --release -q --test scheduler --test precision
