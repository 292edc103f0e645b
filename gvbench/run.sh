#!/usr/bin/env bash
# Builds the `gv` CLI and the benchmark in release mode, then runs the
# benchmark with the given arguments, e.g.
#
#   bash gvbench/run.sh --workload rra-nprs44 --seed 0 --seconds 20 --trace 0
#
# Run from the repository root. Build output lands in $CARGO_TARGET_DIR
# (default: target/); the benchmark finds `gv` beside its own executable.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p gv-cli
cargo build --release --offline --quiet --manifest-path gvbench/Cargo.toml
exec "$target/release/gvbench" "$@"
