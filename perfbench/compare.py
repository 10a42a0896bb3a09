#!/usr/bin/env python3
"""Steadiness and parent-vs-change comparison for the benchmark.

Run from the root of a checkout. Bounds, directions and the run length
come from BENCHMARK.json.

  steady   Run one workload N times, each with another seed, and report
           every end-to-end metric's median, quartiles and spread
           (interquartile distance over the median) against its bound.
             python3 perfbench/compare.py steady --workload table1_y \\
                 --runs 10 --out runs/table1_y.jsonl
           --from FILE re-reports an earlier --out file instead of running.

  pair     Run N pairs of two checkouts (parent, change) on one workload,
           alternating which side runs first, then compare them. Pairs
           share a seed; --jitter 1 runs them on held-out inputs.
             python3 perfbench/compare.py pair --parent ../parent \\
                 --change . --workload table1_y --runs 10

  compare  Compare two sets of runs written by steady or pair (--out):
             python3 perfbench/compare.py compare --parent a.jsonl \\
                 --change b.jsonl

A metric counts as improved when the change wins at least 9 of 10 pairs
(ties count for neither) and the medians differ by more than the parent's
interquartile spread. Any other metric is a regression when the change's
median is worse than the parent's by more than the bound, and unresolved
when either side's spread exceeds the bound, unless every change run
beats every parent run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, jitter=0):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0", "--jitter", str(jitter)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd),
                                               proc.returncode))
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1])}


def write_runs(path, runs):
    if path:
        with open(path, "w") as f:
            for r in runs:
                f.write(json.dumps(r) + "\n")


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def steady_report(spec, runs):
    ok = True
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in sorted(by_workload.items()):
        failed = sum(r["result"]["failed"] for r in rs)
        print("%s: %d runs, %d failed operations" % (workload, len(rs),
                                                      failed))
        print("  %-18s %12s %12s %12s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        ok &= failed == 0
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rs]
            s = summarize(vals)
            if m["name"] == "setup_s":
                verdict = "not gated"
            elif s["spread"] <= m["bound"] / 3:
                verdict = "steady"
            elif s["spread"] <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %6.3g  %s" %
                  (m["name"], s["median"], s["q1"], s["q3"], s["spread"],
                   m["bound"], verdict))
    return ok


def compare_report(spec, parent, change):
    worst = "ok"
    workloads = sorted({r["workload"] for r in parent} &
                       {r["workload"] for r in change})
    for workload in workloads:
        pr = sorted((r for r in parent if r["workload"] == workload),
                    key=lambda r: r["seed"])
        cr = sorted((r for r in change if r["workload"] == workload),
                    key=lambda r: r["seed"])
        pf = sum(r["result"]["failed"] for r in pr)
        cf = sum(r["result"]["failed"] for r in cr)
        print("%s: parent %d runs (%d failed ops), change %d runs "
              "(%d failed ops)" % (workload, len(pr), pf, len(cr), cf))
        print("  %-18s %12s %12s %9s %7s %6s  %s" %
              ("metric", "parent", "change", "delta", "wins", "bound",
               "verdict"))
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "higher" else -1)
            pv = [r["result"]["metrics"][name]["value"] for r in pr]
            cv = [r["result"]["metrics"][name]["value"] for r in cr]
            ps, cs = summarize(pv), summarize(cv)
            pairs = list(zip(pv, cv))
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            delta = ((cs["median"] - ps["median"]) / abs(ps["median"])
                     if ps["median"] else 0.0)
            worse = -sign * delta
            iqr = ps["q3"] - ps["q1"]
            if (wins >= 0.9 * len(pairs) and
                    abs(cs["median"] - ps["median"]) > iqr and
                    sign * (cs["median"] - ps["median"]) > 0):
                verdict = "improved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif max(ps["spread"], cs["spread"]) > m["bound"]:
                every_better = all(sign * (c - p) > 0 for c in cv for p in pv)
                verdict = "improved (every run)" if every_better else \
                    "unresolved"
            else:
                verdict = "no regression"
            if verdict == "REGRESSION":
                worst = "regression"
            elif verdict == "unresolved" and worst == "ok":
                worst = "unresolved"
            print("  %-18s %12.6g %12.6g %+8.1f%% %3d/%-3d %6.3g  %s" %
                  (name, ps["median"], cs["median"], 100 * delta, wins,
                   len(pairs), m["bound"], verdict))
        if cf > pf:
            print("  more failed operations than the parent")
            worst = "regression"
    print("overall: %s" % worst)
    return worst != "regression"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    st = sub.add_parser("steady")
    st.add_argument("--workload", action="append")
    st.add_argument("--runs", type=int, default=10)
    st.add_argument("--first-seed", type=int, default=1)
    st.add_argument("--out")
    st.add_argument("--from", dest="from_file")
    pa = sub.add_parser("pair")
    pa.add_argument("--parent", required=True)
    pa.add_argument("--change", required=True)
    pa.add_argument("--workload", action="append", required=True)
    pa.add_argument("--runs", type=int, default=10)
    pa.add_argument("--first-seed", type=int, default=1)
    pa.add_argument("--jitter", type=int, choices=[0, 1], default=0,
                    help="held-out inputs (perfbench/README.md, Seeds)")
    pa.add_argument("--out-parent")
    pa.add_argument("--out-change")
    co = sub.add_parser("compare")
    co.add_argument("--parent", required=True)
    co.add_argument("--change", required=True)
    args = ap.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    if args.mode == "steady":
        if args.from_file:
            runs = read_runs(args.from_file)
        else:
            workloads = args.workload or [w["name"] for w in spec["workloads"]]
            runs = [run_once(root, spec, w, args.first_seed + i)
                    for w in workloads for i in range(args.runs)]
            write_runs(args.out, runs)
        sys.exit(0 if steady_report(spec, runs) else 1)
    if args.mode == "pair":
        parent, change = [], []
        for w in args.workload:
            for i in range(args.runs):
                seed = args.first_seed + i
                sides = [(args.parent, parent), (args.change, change)]
                for side_root, out in (sides if i % 2 == 0 else sides[::-1]):
                    out.append(run_once(os.path.abspath(side_root), spec, w,
                                        seed, args.jitter))
        write_runs(args.out_parent, parent)
        write_runs(args.out_change, change)
        sys.exit(0 if compare_report(spec, parent, change) else 1)
    sys.exit(0 if compare_report(spec, read_runs(args.parent),
                                 read_runs(args.change)) else 1)


if __name__ == "__main__":
    main()
