#!/usr/bin/env bash
# Behaviour check for a change meant to alter no output: build `repro` and
# the golden-digest generator from REV and from this tree, run every
# deterministic output surface on both, and compare. Prints `same` or
# `DIFFERS` (with a diff excerpt) for every surface, then exits 1 if any
# differed, so a change that moves one surface on purpose still shows the
# others unchanged.
#
#   scripts/same_outputs.sh [REV]
#
# REV defaults to the parent by check.sh's line-budget rule: HEAD while the
# tree has uncommitted changes, HEAD~1 once it is clean. REV is built from
# a `git archive` in a temp dir, so this takes a second release build and
# is not a check.sh stage. Surfaces: the golden digests, the four chaos
# smokes (stdout and exit code), `mc --smoke` with its `(N.Ns)` wall time
# stripped, `all --quick` (stdout, then `diff -r` of the CSVs), and the
# benchmark package's `--smoke` reduced to its virtual metrics.
set -euo pipefail
# Run from the repository root, wherever the script was invoked from.
case "$0" in
*/*) cd "${0%/*}/.." ;;
*) cd .. ;;
esac

rev=${1:-}
if [ -z "$rev" ]; then
    rev=HEAD~1
    [ -z "$(git status --porcelain)" ] || rev=HEAD
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/old"
git archive "$rev" | tar -x -C "$tmp/old"

differed=0

build() {
    cargo build --release --offline --quiet -p qrdtm-bench
    cargo build --release --offline --quiet --example golden_digests
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
}
echo "building $rev and this tree"
(cd "$tmp/old" && build)
build

# Run one surface on both sides and compare what it printed: $1 names the
# surface, $2 is a filter for the output, the rest is the command. An
# argument starting with ROOT starts with the side's checkout instead, and
# one ending in SIDE ends in `old` or `new`.
compare() {
    local name=$1 filter=$2
    shift 2
    local side dir
    for side in old new; do
        dir=.
        [ "$side" = new ] || dir=$tmp/old
        local code=0 args=("${@/#ROOT/$dir}")
        "${args[@]/%SIDE/$side}" 2>/dev/null >"$tmp/$side.out" || code=$?
        if [ ! -s "$tmp/$side.out" ]; then
            echo "EMPTY    $name ($side side printed nothing, exit $code)"
            differed=1
            return
        fi
        echo "exit $code" >>"$tmp/$side.out"
        $filter <"$tmp/$side.out" >"$tmp/$side.cmp"
    done
    if cmp -s "$tmp/old.cmp" "$tmp/new.cmp"; then
        echo "same     $name"
    else
        echo "DIFFERS  $name"
        diff "$tmp/old.cmp" "$tmp/new.cmp" | head -20 || true
        differed=1
    fi
}

# `mc --smoke` ends with its wall time, e.g. "... caught (12.3s)".
strip_secs() { sed -E 's/ \([0-9]+\.[0-9]s\)$//'; }

# The benchmark smoke minus everything read from the host clock: the
# par_bank block (threads on the wall clock), the JSON result lines,
# metrics in s, 1/s, ns or MB, the three bench.* host ratios, and the
# wall-clock rows of each span table. What is left is seeded.
virtual_only() {
    awk '
        /^# workload=/ { par = ($2 == "workload=par_bank") }
        par || /^\{/ { next }
        $3 ~ /^(s|1\/s|ns|MB)$/ { next }
        $1 ~ /^bench\.(host_speed|slice_wall_growth|trace_overhead)$/ { next }
        /^# (setup|plan|cluster_new|preload|populate|warmup|measure|slice|audit|invariant|verify_history|probes) / { next }
        { print }'
}

compare "golden digests" cat ROOT/target/release/examples/golden_digests
compare "chaos --smoke" cat ROOT/target/release/repro chaos --smoke
compare "chaos --smoke --detector" cat ROOT/target/release/repro chaos --smoke --detector
compare "chaos --smoke --amnesia" cat ROOT/target/release/repro chaos --smoke --amnesia
compare "chaos --smoke --overload" cat ROOT/target/release/repro chaos --smoke --overload
compare "mc --smoke" strip_secs ROOT/target/release/repro mc --smoke
compare "benchmark --smoke (virtual metrics)" virtual_only \
    ROOT/benchmark/target/release/qrdtm-benchmark --smoke
compare "all --quick (stdout)" cat ROOT/target/release/repro all --quick --out "$tmp/csv.SIDE"
if diff -r "$tmp/csv.old" "$tmp/csv.new" >"$tmp/csv.diff"; then
    echo "same     all --quick (CSVs)"
else
    echo "DIFFERS  all --quick (CSVs)"
    head -20 "$tmp/csv.diff"
    differed=1
fi
exit $differed
