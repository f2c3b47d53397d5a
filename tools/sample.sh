#!/usr/bin/env bash
# Wall-clock sampling profile of one technique on one of ffbench's
# simulation workloads.
#
#   tools/sample.sh <workload> <technique> [rounds]
#
# <workload> is gap_branchy, spec_branchy or spec_predictable; <technique>
# is nowp, instrec, conv or wpemul; rounds defaults to 3. Builds
# tools/sample with frame pointers into .sample/target, runs it with
# SIGALRM every 200 us, writes the raw samples to
# .sample/<workload>.<technique>.txt, and prints the self and inclusive
# shares tools/sample/report.py computes from them when llvm-symbolizer
# is on PATH. Run from anywhere inside the repository.

set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: tools/sample.sh <workload> <technique> [rounds]" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
mkdir -p .sample
out=".sample/$1.$2.txt"

export CARGO_TARGET_DIR="$root/.sample/target"
export RUSTFLAGS="-C force-frame-pointers=yes"
cargo build --release --quiet --offline --manifest-path tools/sample/Cargo.toml
"$CARGO_TARGET_DIR/release/sample" --workload "$1" --technique "$2" \
    --rounds "${3:-3}" --out "$out"

if command -v "${LLVM_SYMBOLIZER:-llvm-symbolizer}" > /dev/null; then
    python3 tools/sample/report.py "$out"
else
    echo "no llvm-symbolizer on PATH: raw samples only, in $out" >&2
fi
