#!/usr/bin/env bash
# Runs the whole suite: every workload untraced and traced, each in its own
# process; prints every metric by name with its unit; exits non-zero if any
# output was wrong. Arguments are passed on, e.g. `--seed 7 --seconds 12`.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
