#!/usr/bin/env bash
# One script for CI: the benchmark's own unit tests, then the whole suite in
# --quick mode (short streams, 2 trials, every correctness check).
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline
cargo run --release --offline -- --quick "$@"
