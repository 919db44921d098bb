#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#   build (release) -> integration tests -> crate unit tests -> lint
#   (warnings are errors)
#   -> serving / chaos / gemm / cluster / fusion / runtime / soak smokes
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

# Chaos smoke: injected op panic, checkpoint corruption, and a replica
# crash must all be recovered from (nonzero exit if any probe fails).
stage chaos ./target/release/fathom chaos autoenc --seed 7

# GEMM smoke: the packed driver, once per panel format (f32, bf16), must
# agree with the naive kernel on all four transpose layouts, be
# bitwise-deterministic serial vs parallel, and apply a fused bias+relu
# epilogue bitwise-identically to the unfused matmul-then-elementwise
# chain.
stage gemm-check ./target/release/fathom gemm-check --m 256 --k 512 --n 192 --threads 8

# Cluster smoke: 2 models x 2 shards under a mixed SLO arrival stream
# with a rolling hot reload mid-run — conservation, zero drops, every
# shard serving, and post-reload replica checkpoints byte-equal to the
# reloaded artifact (nonzero exit if any probe fails).
stage cluster-check ./target/release/fathom cluster-check --seed 7

# Fusion smoke: every workload must step bitwise-identically with fusion
# off vs full (elementwise groups AND GEMM-epilogue groups), serial and
# parallel; fails if either pass finds nothing to fuse suite-wide.
stage fuse-check ./target/release/fathom fuse-check --steps 2 --threads 2 --inter-ops 2

# Runtime smoke: the unified work-stealing pool must match the serial
# walk bit for bit at 1/2/8 workers, and the arena plan must reach a
# zero-allocation steady state (nonzero exit if either probe fails).
stage runtime-check ./target/release/fathom runtime-check --model autoenc --steps 2

# Oversubscription smoke: memnet's thousands of short launches through
# the 8-worker leg (and FATHOM_WORKERS=8 for anything that sizes itself
# from the variable) on the 2-core CI host. Idle workers spin before
# they park and barriers spin for their last chunk, so a spin loop that
# starves the very thread it is waiting for shows up here as a hung
# stage, not in production.
stage runtime-oversubscribed env FATHOM_WORKERS=8 ./target/release/fathom runtime-check --model memnet --steps 2

# Precision smoke: bf16 inference must hold the metric tolerance against
# the f32 reference and stay bitwise identical serial vs parallel, and
# the per-channel int8 calibrate -> quantize -> serve path must hold the
# same gate, on every workload (nonzero exit if any leg fails).
stage precision-check ./target/release/fathom precision-check --steps 2 --threads 4

# Crash-soak smoke: kill a training run mid-flight, corrupt a snapshot,
# inject a NaN loss — the guardrail must trip and recover, and resumed
# training must be bitwise identical to a clean run (nonzero exit
# otherwise). --quick soaks autoenc; the full suite runs via
# `fathom train-soak`.
stage train-soak ./target/release/fathom train-soak --quick --seed 7
