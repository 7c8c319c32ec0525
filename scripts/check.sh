#!/usr/bin/env bash
# Tier-1 gate: run this before every PR. Fails fast on the first broken
# stage — build, tests, formatting, lints, docs, smokes — in that order, so
# the cheapest signal that something is wrong arrives first. Every stage is
# judged by its exit status alone: each smoke checks inside the program
# that its arms ran and its mechanism counters fired.
set -euo pipefail
# Run from the repository root, wherever the script was invoked from.
case "$0" in
*/*) cd "${0%/*}/.." ;;
*) cd .. ;;
esac

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# benchmark/ is a separate workspace compiled against these crates' public
# API: find an API break here, not after every smoke. The benchmark smoke
# at the end reuses these artefacts.
echo "==> cargo build benchmark package (public-API drift)"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Root tests/*.rs are separate binaries of the root package and ride along,
# including the two linear-work gates, each its own binary for its counting
# allocator: tests/qstore_linear_work.rs (bytes per commit, < 1 s) and
# tests/chk_linear_work.rs (allocation calls per QR-CHK data-set object,
# < 1 s).
echo "==> cargo test --workspace"
cargo test --quiet --workspace

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

repro() {
    cargo run --quiet --release -p qrdtm-bench -- "$@"
}

echo "==> chaos smoke (fault injection + invariant checks, incl. qstore batch atomicity)"
repro chaos --smoke

echo "==> chaos detector smoke (self-healing membership, no oracle)"
repro chaos --smoke --detector

echo "==> chaos amnesia smoke (durable replicas, WAL replay + quorum repair, >=20 qstore batch-WAL runs)"
repro chaos --smoke --amnesia

echo "==> chaos overload smoke (open-loop surges, admission control, retry budgets, >=120 runs)"
repro chaos --smoke --overload

echo "==> mc smoke (bounded schedule exploration + checker validation)"
repro mc --smoke

echo "==> benchmark package tests (BENCHMARK.json contract drift, determinism across reps)"
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> benchmark package smoke (separate workspace built against these crates' public API)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "ok: all tier-1 checks passed"
