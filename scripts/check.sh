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

# Run one stage under its heading, then print the wall seconds it took
# (what each stage costs is the other half of deciding which to keep).
stage() {
    echo "==> $1"
    shift
    local t0=$SECONDS
    "$@"
    echo "    ($((SECONDS - t0)) s)"
}

repro() {
    cargo run --quiet --release -p qrdtm-bench -- "$@"
}

quiet() {
    "$@" >/dev/null
}

# Lines under crates/*/src of the tree rooted at $1, as "total code": a file
# counts as code up to the first `#[cfg(test)]` that opens an inline
# `mod ... {` (a `#[cfg(test)] mod tests;` declaration is one line of code,
# not the end of the file), and a `tests.rs` counts as all test.
count_lines() {
    (cd "$1" && find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_test = (FILENAME ~ /\/tests\.rs$/); pending = 0 }
        { total++ }
        in_test { next }
        pending && /^(pub(\([a-z]+\))? )?mod [a-z_]+ \{/ { in_test = 1; code -= 1; next }
        { pending = /^#\[cfg\(test\)\]$/; code++ }
        END { print total, code }')
}

# ROADMAP's "the round's net line count under crates/ must come out
# negative" reads off this one line: both counts for the parent (HEAD when
# the tree has uncommitted changes, HEAD~1 when it is clean; a `git archive`
# into a temp dir, nothing built) and for this tree, with the differences.
line_budget() {
    local parent=HEAD~1 tmp
    [ -z "$(git status --porcelain)" ] || parent=HEAD
    tmp=$(mktemp -d)
    git archive "$parent" crates | tar -x -C "$tmp"
    set -- $(count_lines "$tmp") $(count_lines .)
    rm -rf "$tmp"
    printf 'crates/*/src vs %s: %d → %d lines, %d → %d outside tests (Δ %+d total, Δ %+d outside tests)\n' \
        "$parent" "$1" "$3" "$2" "$4" "$(($3 - $1))" "$(($4 - $2))"
}

# The prefetch hint in sim/src/wheel.rs is the workspace's one `unsafe`
# block: every other crate root forbids `unsafe_code`, and `qrdtm-sim`
# denies it but for that block. A second block fails here, not in review.
one_unsafe_block() {
    local found
    found=$(grep -rn "unsafe {" crates/*/src || true)
    [ "$(grep -c . <<<"$found")" -eq 1 ] && return
    echo "expected exactly one \`unsafe {\` block under crates/*/src, found:"
    echo "${found:-  none}"
    return 1
}

stage "one unsafe block (the prefetch hint in sim/src/wheel.rs)" \
    one_unsafe_block

stage "cargo build --workspace --release" \
    cargo build --workspace --release

# benchmark/ is a separate workspace compiled against these crates' public
# API: find an API break here, not after every smoke. The benchmark smoke
# at the end reuses these artefacts.
stage "cargo build benchmark package (public-API drift)" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Root tests/*.rs are separate binaries of the root package and ride along,
# including the two linear-work gates, each its own binary for the counting
# allocator of tests/support/counting_alloc.rs: tests/qstore_linear_work.rs
# (bytes per commit, < 1 s) and tests/chk_linear_work.rs (allocation calls
# per data-set object, per remote read and per closed-nested scope, < 1 s). crates/sim/tests/backlog.rs rides here too: a node backlog four
# wheel horizons deep must cause no overflow promotions (< 1 s).
stage "cargo test --workspace" \
    cargo test --quiet --workspace

stage "cargo fmt --check" \
    cargo fmt --all --check

stage "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (broken intra-doc links are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# fig6, fig7 and the ablations are reached by no test and no smoke; the
# tables are judged elsewhere (crates/bench/tests/shapes.rs), here every
# sweep only has to run to completion.
stage "repro all --quick (every figure, table and ablation runs)" \
    quiet repro all --quick

# The allocation census only has to run; its table is read by hand against
# the parent's (DESIGN.md "Value ownership").
stage "alloc_census (allocation calls and bytes per commit, 5 benchmarks x 3 modes)" \
    quiet cargo run --quiet --release --example alloc_census

stage "chaos smoke (fault injection + invariant checks, incl. qstore batch atomicity)" \
    repro chaos --smoke

stage "chaos detector smoke (self-healing membership, no oracle)" \
    repro chaos --smoke --detector

stage "chaos amnesia smoke (durable replicas, WAL replay + quorum repair, >=20 qstore batch-WAL runs)" \
    repro chaos --smoke --amnesia

stage "chaos overload smoke (open-loop surges, admission control, retry budgets, >=120 runs)" \
    repro chaos --smoke --overload

stage "mc smoke (bounded schedule exploration + checker validation)" \
    repro mc --smoke

stage "benchmark package tests (BENCHMARK.json contract drift, determinism across reps)" \
    cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

stage "benchmark package smoke (separate workspace built against these crates' public API)" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "ok: all tier-1 checks passed (${SECONDS} s)"
line_budget
