#!/usr/bin/env bash
# Builds the `bootes` CLI and the `e2e` benchmark (release, offline) and runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash e2e/run.sh --workload suite-cold --seed 0 --seconds 20 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`), so `e2e` finds the `bootes` executable next to its own.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin bootes >&2
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
