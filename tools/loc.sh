#!/usr/bin/env bash
# Non-test line count of the workspace crates.
#
# Counts, for every Rust file under crates/*/src (crates/shims excluded:
# they are stand-ins for third-party crates), the lines before the file's
# first `#[cfg(test)]` at the start of a line, which is where each file's
# test module begins. An indented `#[cfg(test)]` on a helper above the
# test module does not end the count. Prints the count per crate and the
# total.
#
# Usage: tools/loc.sh [REPO_ROOT]   (defaults to the current directory)

set -eu

root=${1:-.}
total=0
for dir in "$root"/crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    [ "$crate" = shims ] && continue
    n=$(find "$dir" -name '*.rs' -type f -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { done = 0 }
                        /^#\[cfg\(test\)\]/ { done = 1 }
                        !done { n++ }
                        END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
