#!/usr/bin/env bash
# The repo benchmark's one command. Builds the measured `ftclos` binary (root
# workspace) and the driver (this directory's own workspace) into one target
# directory, then hands every argument to the driver:
#
#   benchmark/run.sh                          the suite: all workloads, untraced then traced
#   benchmark/run.sh --only sim-steady        the suite on one workload
#   benchmark/run.sh --selfcheck              the untraced suite twice, held against the bounds
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                             one workload, one JSON line (BENCHMARK.json's command)
#
# See benchmark/README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
# A relative CARGO_TARGET_DIR means relative to where the caller stands.
export CARGO_TARGET_DIR=$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")

build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ftclos-cli --bin ftclos >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
build_ns=$(($(date +%s%N) - build_start))
build_s=$(printf '%d.%09d' $((build_ns / 1000000000)) $((build_ns % 1000000000)))

exec "$CARGO_TARGET_DIR/release/ftclos-benchmark" --bench-dir "$here" --build-s "$build_s" "$@"
