#!/bin/sh
# Non-test lines per crate and in total: every line before the first
# `#[cfg(test)]` in each .rs file under crates/*/src. This is the number
# ROADMAP.md judges deletions by; it gates nothing.
set -eu
cd "$(dirname "$0")/.."
total=0
for crate in crates/*; do
    n=$(find "$crate"/src -name '*.rs' -exec awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t' {} + | wc -l)
    printf '%-8s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
