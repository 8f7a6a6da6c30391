#!/bin/sh
# Every `pub fn` in the non-test part of crates/*/src whose name is used
# nowhere in non-test code, with how many times the tests use it. Non-test
# code is every line before the first `#[cfg(test)]` of the .rs files under
# crates/*/src (the bench bins included), examples/, src/ and benchmark/src,
# comment lines (doc examples too) left out; test code is what follows that
# line, plus tests/ and crates/*/tests. Matching is by bare name, so a name
# that is also something else's (`new`, `len`) is never listed: the list
# errs towards silence. An item no other crate names is `pub(crate)` or
# private, so rustc's dead_code lint (an error under `clippy -D warnings`)
# owns crate-internal dead code. What this prints are `pub fn`s that only
# tests name: tests outside their own crate (tests/, crates/*/tests, another
# crate's unit tests) keep them public, and `txn::tpc`'s are public on
# purpose. It gates nothing.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# words nontest|test|all: identifier counts over that part of the .rs files
# on stdin, `fn name` definitions dropped so that only uses are counted.
words() {
    xargs awk -v part="$1" '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        /^[ \t]*\/\// { next }
        part == "all" || (part == "test") == t' |
        sed -E 's/fn +[A-Za-z_][A-Za-z0-9_]*//g' |
        grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c
}

find crates/*/src examples src benchmark/src -name '*.rs' | sort >"$tmp/files"
words nontest <"$tmp/files" >"$tmp/nontest"
{
    words test <"$tmp/files"
    find tests crates/*/tests -name '*.rs' 2>/dev/null | words all
} >"$tmp/test"

find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { t = 0 }
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && match($0, /pub fn [A-Za-z_][A-Za-z0-9_]*/) {
        print FILENAME, substr($0, RSTART + 7, RLENGTH - 7)
    }' >"$tmp/defs"

awk -v nontest="$tmp/nontest" -v test="$tmp/test" '
    BEGIN {
        while ((getline line <nontest) > 0) { split(line, f, " "); used[f[2]] = 1 }
        while ((getline line <test) > 0) { split(line, f, " "); tests[f[2]] += f[1] }
    }
    !($2 in used) { printf "%-34s %-40s %3d test refs\n", $1, $2, tests[$2]; n++ }
    END { printf "%d unreferenced pub fn\n", n }' "$tmp/defs"
