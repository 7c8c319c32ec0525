#!/usr/bin/env python3
"""A/A harness for the benchmark: run result sets and compare two of them.

    python3 benchmark/aa.py run OUT.json [--seeds N] [--first-seed S]
                                         [--workloads a,b,...] [--trace]
    python3 benchmark/aa.py compare A.json B.json

`run` executes BENCHMARK.json's command once per (workload, seed) from the
repository root, N seeds per workload (default 10, seeds S..S+N-1; default
workloads: the ones BENCHMARK.json lists), and writes every run's metrics
plus the host record to OUT.json.

`compare` prints one row per (workload, end-to-end metric): both medians,
how much worse B is than A as a share of A's median (negative = better),
each set's spread (interquartile range over median) and the bound from
BENCHMARK.json. It exits non-zero when B is worse than A by more than the
bound, or when a spread exceeds it (the pair is then unresolved, not equal).
`setup_s` is exempt from the spread rule, as in the contract.

The bounds are a coarse net (one per metric for all workloads). The fine
gate is exact: on the simulator the virtual-time metrics repeat bit for bit
for a seed, so `compare` also reports, per workload, on how many common seeds
every one of them is identical in A and B. Two sets of one commit must agree
on all of them (anything else fails the comparison); a protocol change shows
up here before it shows in any median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Exact for a (workload, seed) on the simulator; `par_bank` runs on real
# threads and has no such metrics.
VIRTUAL = ["commits_per_vsec", "goodput_per_vsec", "commit_p50_vms",
           "commit_p99_vms", "ok_share"]
WALL_CLOCK_WORKLOADS = ["par_bank"]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    c = contract()
    names = [w["name"] for w in c["workloads"]]
    if args.workloads:
        # Any name the program knows, listed in the contract or not
        # (`par_bank` is not).
        names = args.workloads.split(",")
    result = {"command": c["command"], "trace": args.trace, "host": None, "runs": {}}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = c["command"] + [
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(c["run_seconds"]),
                "--trace", "1" if args.trace else "0",
            ]
            t0 = time.time()
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.time() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit code {p.returncode}")
            out = json.loads(lines[-1])
            if result["host"] is None and lines[0].startswith("# "):
                result["host"] = lines[0][2:]
            if not out["correct"] or out["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect run: {lines[-1]}")
            runs.append({
                "seed": seed,
                "wall_s": round(wall, 3),
                "attempted": out["attempted"],
                "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            })
            print(f"{name} seed {seed}: {wall:.1f}s", file=sys.stderr)
        result["runs"][name] = runs
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


def spread(values):
    """Interquartile range as a share of the median (the contract's rule)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def compare(args):
    c = contract()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    print(f"A: {a['host']}")
    print(f"B: {b['host']}")
    header = (f"{'workload':<14} {'metric':<20} {'median A':>14} {'median B':>14} "
              f"{'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    print(header)
    bad = 0
    for name in a["runs"]:
        if name not in b["runs"]:
            continue
        for m in c["end_to_end"]:
            va = [r["metrics"][m["name"]] for r in a["runs"][name]]
            vb = [r["metrics"][m["name"]] for r in b["runs"][name]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            if worse > m["bound"]:
                verdict = "REGRESSED"
            elif m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{name:<14} {m['name']:<20} {ma:>14.6g} {mb:>14.6g} "
                  f"{worse:>+10.2%} {sa:>9.2%} {sb:>9.2%} {m['bound']:>6.2f}  {verdict}")
    same_commit = a["host"].split("commit=")[-1] == b["host"].split("commit=")[-1]
    for name in a["runs"]:
        if name in WALL_CLOCK_WORKLOADS or name not in b["runs"]:
            continue
        by_seed = {r["seed"]: r["metrics"] for r in b["runs"][name]}
        common = [r for r in a["runs"][name] if r["seed"] in by_seed]
        same = sum(all(r["metrics"][m] == by_seed[r["seed"]][m] for m in VIRTUAL)
                   for r in common)
        print(f"{name:<14} virtual metrics identical on {same}/{len(common)} common seeds")
        if same_commit and same != len(common):
            bad += 1
    if bad:
        print(f"{bad} comparisons failed")
        sys.exit(1)
    print("every pair within its bound")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workloads")
    r.add_argument("--trace", action="store_true")
    r.set_defaults(func=run)
    k = sub.add_parser("compare")
    k.add_argument("a")
    k.add_argument("b")
    k.set_defaults(func=compare)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
