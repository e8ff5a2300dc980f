#!/usr/bin/env bash
# Build aadlsched, aadlschedd and the benchmark from source, then run the
# benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --seed 1
#   bash benchmark/run.sh --workload bundled --seed 3 --seconds 15 --trace 0
#
# All three binaries land in one target directory ($CARGO_TARGET_DIR, or
# `target`), where the benchmark finds the programs next to itself.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" \
    -p aadl-sched -p served --bin aadlsched --bin aadlschedd
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml
exec "$target/release/benchmark" "$@"
