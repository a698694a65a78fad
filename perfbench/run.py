"""Benchmark of the fairavi pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fairavi is imported from its
``src`` directory.  One run sets up one workload (see workloads.py) from the
seed, then runs its operations back to back for S seconds and checks their
outputs.  With --trace 0 the last line of standard output is a JSON object
with every end-to-end metric named in BENCHMARK.json; with --trace 1 the run
spends S/2 seconds untraced and S/2 traced, reports every per-layer metric,
including the tracing overhead, and writes its spans to
``.perfbench_out/trace-<workload>-seed<N>.json``.  Lines before the last
record the environment and the workload's own figures.

No machine setting (CPU frequency, pinning, scheduler, caches) is changed to
reduce noise; the benchmark takes the machine as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5          # set-up runs per timed run; setup_s is their median
COUNT_METRICS = ("autodiff.nodes_per_step", "autodiff.nodes_per_chunk",
                 "model.predict_calls", "training.epochs.pretrain-main",
                 "training.epochs.pretrain-adv", "training.epochs.joint",
                 "training.epochs.adv-refit")

perf = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "corpus_seed": seed,
            "machine_settings": "unchanged; no setting was altered to reduce noise"}


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(setups, ops) -> dict:
    good = [o for o in ops if o.ok]
    return {"setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": len(good) / len(ops),
            "op_s": statistics.median(o.wall for o in good) if good else 0.0}


def exact_counts_repeat(tracer_mod, spans) -> bool:
    """Every exact count is the same in each traced operation."""
    per_op = {}
    for s in spans:
        per_op.setdefault(s.op, []).append(s)
    seen = {tuple(tracer_mod.layer_metrics(group, 1)[0][m] for m in COUNT_METRICS)
            for group in per_op.values()}
    return len(seen) <= 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fairavi", "__init__.py")):
        print(f"perfbench: no fairavi sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import tracer as tc
    from perfbench import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    env = environment(args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, wl.Scale(), workdir)
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = perf()
            workload.setup()
            setups.append(perf() - t0)
        if not args.trace:
            ops = untraced = wl.measure(workload, args.seconds)
            values = end_to_end(setups, ops)
            metrics = spec["end_to_end"]
            repeat_ok = True
        else:
            untraced = wl.measure(workload, args.seconds / 2)
            tracer = tc.Tracer()
            tracer.install()
            try:
                traced = wl.measure(workload, args.seconds / 2, tracer, start=len(untraced))
            finally:
                tracer.uninstall()
            ops = untraced + traced
            values, sources = tc.layer_metrics(tracer.spans, len(traced))
            values.update(workload.trace_metrics(untraced))
            values["trace.overhead_frac"] = (statistics.median(o.wall for o in traced)
                                             / statistics.median(o.wall for o in untraced) - 1)
            metrics = spec["per_layer"]
            repeat_ok = exact_counts_repeat(tc, tracer.spans)
            if not repeat_ok:
                print("perfbench: exact counts differ between traced operations",
                      file=sys.stderr)
            with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                      "w") as fh:
                json.dump({"workload": args.workload, "env": env, "metrics": values,
                           "sources": sources, "spans": tracer.records()}, fh)
                fh.write("\n")
        figures = workload.figures(untraced)
    except Exception:  # noqa: BLE001 -- set-up failed: no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops:
        if not op.ok:
            print(f"perfbench: operation failed: {op.error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in figures.items():
        print(f"figure {args.workload} {name} {value:.6g} {unit}")
    failed = sum(not o.ok for o in ops)
    result = {"correct": failed == 0 and repeat_ok, "attempted": len(ops), "failed": failed,
              "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                          for m in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
