#!/bin/sh
# Every `pub fn` in the non-test part of crates/*/src that no non-test code
# names, as the compiler resolves names. Non-test code is every line before
# the first `#[cfg(test)]` of a .rs file under crates/*/src.
#
# In a scratch copy of the repository, each such `pub fn` is marked
# `#[deprecated(note = "<file>:<line> <name>")]`, and `cargo check` reports
# every use of it. The first check covers the non-test code: the
# workspace's libraries, binaries and examples, and benchmark/'s binaries.
# The second covers every target, tests included. A `pub fn` the first
# check never names is listed: under "only tests name" with its test uses
# when the second check names it, under "nothing names" otherwise. Doc
# tests are not checked. `--locked` keeps both Cargo.lock files as they
# are. An item no other crate names is `pub(crate)` or private, so rustc's
# dead_code lint (an error under `clippy -D warnings`) owns crate-internal
# dead code; what this prints are `pub fn`s only tests, or nothing, keep
# alive. `txn::tpc`'s are public on purpose. It gates nothing.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/repo"
tar --exclude=./target --exclude=./.git --exclude=./.bench_build \
    --exclude=./benchmark/target --exclude=./benchmark/out -cf - . |
    tar -xf - -C "$tmp/repo"
cd "$tmp/repo"

for f in $(find crates/*/src -name '*.rs' | sort); do
    awk -v defs="$tmp/defs" '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && match($0, /^[ \t]*pub fn [A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, 1, RLENGTH)
            sub(/^[ \t]*pub fn /, "", name)
            indent = $0
            sub(/[^ \t].*$/, "", indent)
            id = FILENAME ":" FNR " " name
            print id >>defs
            printf "%s#[deprecated(note = \"%s\")]\n", indent, id
        }
        { print }' "$f" >"$f.marked"
    mv "$f.marked" "$f"
done

# uses OUT ARGS...: append to OUT the deprecated id of each use
# `cargo check ARGS` reports; a failed check stops the script.
uses() {
    out=$1
    shift
    CARGO_TARGET_DIR="$tmp/target" cargo check --offline --locked --quiet \
        --message-format=short "$@" 2>"$tmp/log" || {
        cat "$tmp/log" >&2
        exit 1
    }
    sed -n 's/.*warning: use of deprecated .*`: \(.*\)$/\1/p' "$tmp/log" >>"$out"
}
uses "$tmp/nontest" --workspace --lib --bins --examples
uses "$tmp/nontest" --manifest-path benchmark/Cargo.toml --bins
uses "$tmp/all" --workspace --all-targets
uses "$tmp/all" --manifest-path benchmark/Cargo.toml --all-targets

awk -v nontest="$tmp/nontest" -v all="$tmp/all" '
    BEGIN {
        while ((getline line <nontest) > 0) used[line] = 1
        while ((getline line <all) > 0) refs[line]++
    }
    !($0 in used) {
        split($0, f, " ")
        if ($0 in refs) {
            only[++a] = sprintf("%-40s %-34s %3d test uses", f[1], f[2], refs[$0])
        } else {
            none[++b] = sprintf("%-40s %s", f[1], f[2])
        }
    }
    END {
        print "pub fns only tests name:"
        for (i = 1; i <= a; i++) print "  " only[i]
        print "pub fns nothing names (doc tests not checked):"
        for (i = 1; i <= b; i++) print "  " none[i]
        printf "%d pub fn: %d named only by tests, %d by nothing\n", NR, a, b
    }' "$tmp/defs"
