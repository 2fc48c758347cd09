#!/usr/bin/env bash
# Prints each crate's non-test lines under crates/*/src: the lines of every
# .rs file before its first column-0 `#[cfg(test)]` (the whole file when it
# has none), then the total. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    n=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
