#!/usr/bin/env bash
# Tier-1 verification: exactly what CI runs.
#
#   scripts/verify.sh          # builds + tests + clippy + benchmark harness tests
#   scripts/verify.sh --fast   # skip the release builds of the binaries and the
#                              # benchmark runner (tests + clippy + harness tests)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
    esac
done

if [ "$fast" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
    # The benchmark runner is a workspace of its own over the simulator
    # crates, so an API change that breaks it shows up here.
    echo "==> cargo build --release --manifest-path perfbench/Cargo.toml"
    cargo build --release --manifest-path perfbench/Cargo.toml
fi

echo "==> cargo test --workspace --release -q"
cargo test --workspace --release -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> python3 -m unittest discover -s perfbench"
python3 -m unittest discover -s perfbench

echo "verify: OK"
