#!/usr/bin/env bash
# Tier-1 verification: exactly what CI runs.
#
#   scripts/verify.sh          # build + tests + clippy
#   scripts/verify.sh --fast   # skip the release build of the binaries (tests + clippy)
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
fi

echo "==> cargo test --workspace --release -q"
cargo test --workspace --release -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "verify: OK"
