#!/usr/bin/env bash
# In-process A/B timing of this tree's simulator against another revision.
#
#   tools/ab.sh <rev> [--rounds N] [--workload NAME]...
#
# Exports <rev> with `git archive` into .ab_build/<rev>/, renames that
# copy's simulator packages to ffsima-* (keeping their lib names, the way
# two versions of one crate share a build) and points its shims at this
# tree's, then builds and runs tools/ab, which links both sides and
# alternates them per kernel per round. The remaining arguments go to the
# harness; see tools/ab/main.rs. Run from anywhere inside the repository.

set -euo pipefail

if [ $# -lt 1 ] || [ "${1#-}" != "$1" ]; then
    echo "usage: tools/ab.sh <rev> [--rounds N] [--workload NAME]..." >&2
    exit 2
fi
rev=$1
shift

root=$(git rev-parse --show-toplevel)
cd "$root"
name=$(printf '%s' "$rev" | tr -c 'A-Za-z0-9._-' '_')
copy=".ab_build/$name"

rm -rf "$copy"
mkdir -p "$copy"
# -m: stamp the files now, so cargo rebuilds the parent side even when
# an earlier export of another revision was built through the same link.
git archive "$rev" | tar -x -m -C "$copy"

# Rename every ffsim-* package of the copy to ffsima-*, keeping its lib
# name, and point the copy's workspace at the renamed packages and at
# this tree's shims (two path packages of one name and version cannot
# share a build).
for manifest in "$copy"/crates/*/Cargo.toml; do
    crate=$(sed -n 's/^name = "ffsim-\([a-z]*\)"$/\1/p' "$manifest" | head -n 1)
    [ -n "$crate" ] || continue
    sed -i "0,/^name = \"ffsim-$crate\"$/s//name = \"ffsima-$crate\"/" "$manifest"
    printf '\n[lib]\nname = "ffsim_%s"\n' "$crate" >> "$manifest"
done
sed -i -E \
    -e 's|^(ffsim-([a-z]+)) = \{ path = "crates/[a-z]+" \}$|\1 = { path = "crates/\2", package = "ffsima-\2" }|' \
    -e 's|^([a-z]+) = \{ path = "crates/shims/([a-z]+)" \}$|\1 = { path = "../../crates/shims/\2" }|' \
    "$copy/Cargo.toml"

# tools/ab/Cargo.toml reads the parent side through this link.
ln -sfn "$name" .ab_build/base

export CARGO_TARGET_DIR="$root/.ab_build/target"
cargo build --release --quiet --offline --manifest-path tools/ab/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ab" --parent "$rev" "$@"
