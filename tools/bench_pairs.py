#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent and a change checkout.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds 11-21
        [--claim-metric peak_rss_mb --claim "..."]
        [--check sweep:31-33 --check probe:31-33] [--out FILE]

For each seed, runs ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` once in each checkout, S being the change
checkout's BENCHMARK.json ``run_seconds``, odd seeds parent first and
even seeds change first, and reads the ``env`` line and the final JSON
record of each run.  Every end-to-end metric of the change checkout's
BENCHMARK.json is summarized as both sides' medians and quartiles
(numpy.percentile, linear interpolation) and the number of pairs in which
the change was strictly better.  With --claim-metric, ``claim_met`` says
whether the change won at least 9 of every 10 pairs on that metric and
its median beat the parent's by more than the parent's interquartile
range.  Each --check runs another workload's pairs the same way and files
them under ``no_regression``.  The record goes to BENCH_<W>.json in the
change checkout unless --out names a file.  Nothing but perfbench/run.py
is invoked, and no machine setting is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def revision(checkout: str) -> str:
    git = ["git", "-C", checkout]
    rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                         check=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return rev + ("+uncommitted" if dirty else "")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(proc.stderr)
    return {"env": env, "result": result, "returncode": proc.returncode}


def run_pairs(parent: str, change: str, workload: str, seeds, seconds: float) -> list:
    runs = []
    for seed in seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        run = {"seed": seed, "first": sides[0]}
        for side in sides:
            run[side] = run_once(parent if side == "parent" else change, workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: "
                  f"{json.dumps((run[side]['result'] or {}).get('metrics'))}", file=sys.stderr)
        runs.append(run)
    return runs


def summarize(runs: list, metrics: list) -> dict:
    ok = [r for r in runs if r["parent"]["result"] and r["change"]["result"]]
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        vals = {side: np.array([r[side]["result"]["metrics"][name]["value"] for r in ok])
                for side in ("parent", "change")}
        summary = {}
        for side, v in vals.items():
            q1, med, q3 = np.percentile(v, [25, 50, 75]) if v.size else (np.nan,) * 3
            summary.update({f"{side}_median": float(med), f"{side}_q1": float(q1),
                            f"{side}_q3": float(q3)})
        summary["change_better_pairs"] = int(np.sum(sign * (vals["parent"] - vals["change"]) > 0))
        summary["pairs"] = len(ok)
        out[name] = summary
    out["failed_runs"] = len(runs) - len(ok)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="LO-HI, inclusive")
    p.add_argument("--claim-metric")
    p.add_argument("--claim", default="")
    p.add_argument("--check", action="append", default=[], help="WORKLOAD:LO-HI")
    p.add_argument("--out")
    args = p.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    revisions = {"parent_rev": revision(parent), "change_rev": revision(change)}

    runs = run_pairs(parent, change, args.workload, args.seeds, seconds)
    result = summarize(runs, spec["end_to_end"])
    if args.claim_metric:
        s = result[args.claim_metric]
        iqr = s["parent_q3"] - s["parent_q1"]
        sign = 1 if next(m for m in spec["end_to_end"]
                         if m["name"] == args.claim_metric)["better"] == "lower" else -1
        result["claim_met"] = bool(
            s["pairs"] and s["change_better_pairs"] >= 0.9 * s["pairs"]
            and sign * (s["parent_median"] - s["change_median"]) > iqr)
    no_regression = {}
    for check in args.check:
        workload, _, seeds = check.partition(":")
        check_runs = run_pairs(parent, change, workload, seed_range(seeds), seconds)
        no_regression[workload] = {"result": summarize(check_runs, spec["end_to_end"]),
                                   "runs": check_runs}

    record = {
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                   "--trace 0",
        "host": f"{os.cpu_count()} CPU {platform.system()} {platform.machine()}; "
                "no machine setting changed",
        **revisions,
        "order": "odd seeds ran parent first, even seeds change first",
        "iqr_method": "numpy.percentile linear interpolation, Q3 - Q1",
        "result": result,
        "runs": runs,
        "no_regression": no_regression,
    }
    out = args.out or os.path.join(change, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result, indent=1))
    return 0 if result["failed_runs"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
