#!/usr/bin/env bash
# Tier-1 gate: run this before every PR. Fails fast on the first broken
# stage — build, tests, formatting, lints, docs, smokes — in that order, so
# the cheapest signal that something is wrong arrives first. Every output
# surface is judged against a committed golden under tests/golden/: `cargo
# test` checks all but the benchmark smoke's, which the last stage diffs.
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

# Both counts for the tree at commit $1 (a `git archive` into a temp dir,
# nothing built) and for this tree, with the differences, labelled "vs $2".
budget_vs() {
    local tmp
    tmp=$(mktemp -d)
    git archive "$1" crates | tar -x -C "$tmp"
    set -- "$2" $(count_lines "$tmp") $(count_lines .)
    rm -rf "$tmp"
    printf 'crates/*/src vs %s: %d → %d lines, %d → %d outside tests (Δ %+d total, Δ %+d outside tests)\n' \
        "$1" "$2" "$4" "$3" "$5" "$(($4 - $2))" "$(($5 - $3))"
}

# ROADMAP's line rules read off the last two lines: this tree against its
# parent (HEAD when the tree has uncommitted changes, HEAD~1 when it is
# clean), then against the last `re-anchor @` commit, the round so far.
line_budget() {
    local parent=HEAD~1 anchor
    [ -z "$(git status --porcelain)" ] || parent=HEAD
    budget_vs "$parent" "$parent"
    anchor=$(git log --grep='^re-anchor @' -1 --format=%h)
    if [ -n "$anchor" ]; then
        budget_vs "$anchor" "re-anchor $anchor"
    fi
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

# Besides the unit and integration suites, this stage runs these gates:
# - tests/golden_digests.rs and crates/bench/tests/golden_surfaces.rs:
#   every seeded leg, `repro` smoke and figure against tests/golden/;
# - tests/teardown.rs: every family's dropped cluster, and every workload
#   driver, frees the cluster it ran (live bytes back where they were;
#   < 1 s);
# - tests/qstore_linear_work.rs: Q-Store bytes per commit (< 1 s);
# - tests/chk_linear_work.rs: allocation calls per data-set object, remote
#   read and closed-nested scope (< 1 s);
# - crates/sim/tests/backlog.rs: a backlog four wheel horizons deep causes
#   no overflow promotions (< 1 s);
# - crates/sim/tests/page_density.rs: at most one bucket drain per four
#   events at the paper testbed's traffic (< 1 s);
# - tests/doc_limits.rs: DESIGN.md within 40 000 bytes, citing no PR and
#   listing every crate; each CHANGES.md entry within 1 200 characters.
stage "cargo test --workspace" \
    cargo test --quiet --workspace

stage "cargo fmt --check" \
    cargo fmt --all --check

stage "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (broken intra-doc links are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The allocation census only has to run; its table is read by hand against
# the parent's (DESIGN.md "Value ownership").
stage "alloc_census (allocation calls and bytes per commit, 5 benchmarks x 3 modes)" \
    quiet cargo run --quiet --release --example alloc_census

stage "benchmark package tests (BENCHMARK.json contract drift, determinism across reps)" \
    cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

# The benchmark smoke's seeded lines (scripts/virtual_only.awk drops what it
# reads from the host). A change meant to move them regenerates the golden
# with scripts/regen_goldens.sh.
benchmark_smoke() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke |
        awk -f scripts/virtual_only.awk >target/benchmark_smoke.txt
    diff -u tests/golden/benchmark_smoke.txt target/benchmark_smoke.txt
}

stage "benchmark package smoke (virtual metrics against tests/golden/benchmark_smoke.txt)" \
    benchmark_smoke

echo "ok: all tier-1 checks passed (${SECONDS} s)"
line_budget
