#!/usr/bin/env bash
# Non-test, non-comment Rust lines per crate: the number a simplification
# PR quotes for its line delta.
#
#   scripts/loc.sh [checkout-root]      (default: this checkout)
#
# For every crates/<name>/ it counts the lines of each .rs file outside
# tests/ and benches/, cut at the file's first `#[cfg(test)]` or `#![cfg(test)]`
# (unit tests sit at the end of a file here), skipping blank lines and lines that
# hold only a comment (`//`, `///`, `//!`). Prints one row per crate and
# a total.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
for crate in crates/*/; do
  name="$(basename "$crate")"
  lines=$(find "$crate" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -print0 |
    xargs -0 -r awk '
      FNR == 1 { cut = 0 }
      /^[[:space:]]*#!?\[cfg\(test\)\]/ { cut = 1 }
      cut { next }
      /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { next }
      { n++ }
      END { print n + 0 }')
  printf '%-10s %6d\n' "$name" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
