#!/usr/bin/env bash
# Run `cargo test -q` with the given arguments and fail unless it ran at
# least one test. A name filter that matches nothing makes cargo pass with
# "running 0 tests", so every filtered CI selection goes through this
# script: a renamed or deleted test fails the step instead of silently
# selecting nothing. Usage: scripts/selected.sh -p croesus-wal --lib writer::
set -euo pipefail
cargo test -q "$@" 2>&1 | tee /dev/stderr | grep -E '^running [1-9][0-9]* tests?$' >/dev/null
