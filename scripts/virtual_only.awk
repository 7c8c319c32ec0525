# The benchmark smoke minus all it reads from the host: the par_bank block,
# JSON lines, s, 1/s, ns and MB metrics, three bench.* host ratios, span
# wall-clock rows and the headers' host fields. What is left is seeded.
# Read by scripts/check.sh (diffed with tests/golden/benchmark_smoke.txt)
# and scripts/regen_goldens.sh (which rewrites that golden).
/^# workload=/ { par = ($2 == "workload=par_bank"); if (!par) print $1, $2, $3, $4; next }
par || /^\{/ { next }
$3 ~ /^(s|1\/s|ns|MB)$/ { next }
$1 ~ /^bench\.(host_speed|slice_wall_growth|trace_overhead)$/ { next }
/^# (setup|plan|cluster_new|preload|populate|warmup|measure|slice|audit|invariant|verify_history|probes) / { next }
{ print }
