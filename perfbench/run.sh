#!/usr/bin/env bash
# Build the release comic-serve binary and the benchmark program from this
# checkout, then run the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
#
# Builds go to $CARGO_TARGET_DIR (default .bench_build in the checkout).
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cd "$root"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p comic-serve --bin comic-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" 1>&2
exec "$target/release/comic-perfbench" --serve-bin "$target/release/comic-serve" "$@"
