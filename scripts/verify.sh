#!/usr/bin/env bash
# Tier-1 verification: exactly what CI runs.
#
#   scripts/verify.sh          # format + builds + tests + clippy + docs + benchmark harness tests
#   scripts/verify.sh --fast   # skip the release builds of the binaries and the
#                              # benchmark runner (format + tests + clippy + docs + harness tests)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
    esac
done

# The workspace members only: perfbench/ is a workspace of its own.
echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

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

# A doc link to a deleted or private item fails here, not in a reader's
# browser.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> python3 -m unittest discover -s perfbench"
python3 -m unittest discover -s perfbench

echo "verify: OK"
