#!/usr/bin/env bash
# Tier-1 gate: run this before every PR. Fails fast on the first broken
# stage — build, tests, formatting, lints — in that order, so the cheapest
# signal that something is wrong arrives first.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --quiet --workspace

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> chaos smoke (fault injection + invariant checks, incl. qstore batch atomicity)"
chaos_out=$(cargo run --quiet --release -p qrdtm-bench -- chaos --smoke)
echo "$chaos_out"
grep -q '^\[qstore' <<<"$chaos_out" || {
    echo "error: chaos smoke did not run the qstore arm" >&2
    exit 1
}

echo "==> chaos detector smoke (self-healing membership, no oracle)"
cargo run --quiet --release -p qrdtm-bench -- chaos --smoke --detector

echo "==> chaos amnesia smoke (durable replicas, WAL replay + quorum repair)"
amnesia_out=$(cargo run --quiet --release -p qrdtm-bench -- chaos --smoke --amnesia)
echo "$amnesia_out"
# The qstore arms (batch-WAL replay, torn batch tails, planner amnesia)
# must actually have run — 20 seeds' worth of report lines.
qstore_amnesia_runs=$(grep -c '^\[qstore' <<<"$amnesia_out" || true)
if [ "$qstore_amnesia_runs" -lt 20 ]; then
    echo "error: chaos amnesia smoke ran only $qstore_amnesia_runs qstore arm(s) (< 20)" >&2
    exit 1
fi
grep -q 'batch WAL (qstore)' <<<"$amnesia_out" || {
    echo "error: chaos amnesia smoke is missing the qstore batch-WAL section" >&2
    exit 1
}

echo "==> chaos overload smoke (open-loop surges, admission control, retry budgets)"
overload_out=$(cargo run --quiet --release -p qrdtm-bench -- chaos --smoke --overload)
echo "$overload_out"
# All six families must take the open-loop grid, the metastability
# checker must prove it can catch an unprotected collapse, and the
# protection counters must all have fired.
overload_runs=$(grep -c 'overload shed:' <<<"$overload_out" || true)
if [ "$overload_runs" -lt 120 ]; then
    echo "error: chaos overload smoke ran only $overload_runs runs (< 120)" >&2
    exit 1
fi
for want in 'metastable=yes (expected)' 'admission_shed=' \
    'chaos overload smoke: all invariants held'; do
    grep -q "$want" <<<"$overload_out" || {
        echo "error: chaos overload smoke output is missing $want" >&2
        exit 1
    }
done

echo "==> mc smoke (bounded schedule exploration + checker validation)"
mc_out=$(cargo run --quiet --release -p qrdtm-bench -- mc --smoke)
echo "$mc_out"
for want in '^\[qstore' 'skip-tag-check' 'ack-before-fsync'; do
    grep -q "$want" <<<"$mc_out" || {
        echo "error: mc smoke output is missing $want (qstore arm not explored)" >&2
        exit 1
    }
done

echo "==> perf smoke (wall-clock baseline, TL2 backend, BENCH json)"
# The CLI validates its own JSON and exits nonzero on serializability
# violations or malformed output; the greps double-check the artifact has
# the keys downstream tooling reads.
perf_json="${PERF_OUT:-target/BENCH_smoke.json}"
cargo run --quiet --release -p qrdtm-bench -- perf --quick --out "$perf_json"
for key in '"host"' '"sim"' '"par"' '"txns_per_sec"' '"peak_rss_kb"' \
    '"write_heavy_grid"' '"batch_size"' '"epoch_latency_virtual_ns"' \
    '"disk_fsync_virtual_ns"' '"overload_grid"' '"offered_load"' \
    '"goodput"' '"shed"' '"deadline_aborts"' '"retry_budget_exhausted"'; do
    grep -q "$key" "$perf_json" || {
        echo "error: $perf_json is missing $key" >&2
        exit 1
    }
done

echo "==> benchmark package smoke (separate workspace built against these crates' public API)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "ok: all tier-1 checks passed"
