#!/usr/bin/env bash
# Regenerate every golden from release binaries, for a change meant to alter
# an output: the ones `cargo test` compares (tests/golden/digests.txt and
# tests/golden/repro/), the benchmark smoke's seeded lines that
# scripts/check.sh diffs (tests/golden/benchmark_smoke.txt), and the
# published full-grid CSVs in results/ (unchecked, but a figure that moves
# moves there too). A surface that exits non-zero stops the script. The
# script ends by listing every surface that moved; review their diffs.
set -euo pipefail
cd "$(dirname "$0")/.."
repro() { cargo run --quiet --release --offline -p qrdtm-bench -- "$@"; }
cargo run --quiet --release --offline --example golden_digests >tests/golden/digests.txt
out=tests/golden/repro
for surface in "chaos --smoke" "chaos --smoke --detector" "chaos --smoke --amnesia" \
    "chaos --smoke --overload" "mc --smoke"; do
    repro $surface >"$out/${surface// --/_}.txt"
done
rm -rf $out/all_quick
repro all --quick --out $out/all_quick >$out/all_quick.txt
repro all --out results >/dev/null
cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- --smoke |
    awk -f scripts/virtual_only.awk >tests/golden/benchmark_smoke.txt
git diff --stat -- tests/golden results
