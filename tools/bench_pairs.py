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
the change was strictly better, with a ``verdict`` against the metric's
BENCHMARK.json ``bound`` (see ``verdict``), printed one line per workload
and metric.  With --claim-metric, ``claim_met`` says whether that
metric's verdict is ``better``.  Each --check runs another workload's
pairs the same way and files them under ``no_regression``.  The record
goes to BENCH_<W>.json in the change checkout unless --out names a file.
Nothing but perfbench/run.py is invoked, and no machine setting is
changed.
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


def verdict(parent: np.ndarray, change: np.ndarray, better: str, bound: float) -> str:
    """One metric's pairs judged against its relative bound.

    ``unresolved`` when the parent's interquartile range exceeds bound times
    its median, unless every change run beats every parent run; else
    ``worse`` when the change's median is worse than the parent's by more
    than that; else ``better`` when the change won at least 9 of every 10
    pairs and its median beat the parent's by more than the parent's
    interquartile range; else ``not worse``.
    """
    if not parent.size:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    tol, gain = bound * abs(median), sign * (median - np.median(change))
    if q3 - q1 > tol and np.max(sign * change) >= np.min(sign * parent):
        return "unresolved"
    if -gain > tol:
        return "worse"
    won = np.sum(sign * (parent - change) > 0) >= 0.9 * parent.size
    return "better" if won and gain > q3 - q1 else "not worse"


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
        summary["verdict"] = verdict(vals["parent"], vals["change"], m["better"], m["bound"])
        out[name] = summary
    out["failed_runs"] = len(runs) - len(ok)
    return out


def verdict_lines(workload: str, result: dict, metrics: list) -> list[str]:
    """One line per end-to-end metric: both medians with quartiles, pairs won,
    median change and verdict."""
    lines = []
    for m in metrics:
        s = result[m["name"]]
        side = lambda k: f"{s[f'{k}_median']:.4g} [{s[f'{k}_q1']:.4g}, {s[f'{k}_q3']:.4g}]"
        move = s["change_median"] / s["parent_median"] - 1 if s["parent_median"] else 0.0
        lines.append(f"{workload} {m['name']}: parent {side('parent')} change {side('change')} "
                     f"{s['change_better_pairs']}/{s['pairs']} pairs better, median "
                     f"{move:+.1%}: {s['verdict']}")
    return lines


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
        result["claim_met"] = result[args.claim_metric]["verdict"] == "better"
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
    results = {args.workload: result, **{w: c["result"] for w, c in no_regression.items()}}
    for workload, res in results.items():
        print("\n".join(verdict_lines(workload, res, spec["end_to_end"])))
    if "claim_met" in result:
        print(f"claim_met: {result['claim_met']}")
    return 0 if result["failed_runs"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
