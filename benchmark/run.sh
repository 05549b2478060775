#!/usr/bin/env bash
# Build the benchmark from source (release profile, offline) and run it.
#
#   benchmark/run.sh [--seed N] [--reps N] [--smoke] [--out FILE]   every workload -> benchmark/out/*.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#
# Run from anywhere; builds into $CARGO_TARGET_DIR when set, else into
# benchmark/target/. The package is standalone: it path-depends on
# ../crates/*, so without the engine's sources the build — and this
# script — fails before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/amri-benchmark" "$@"
