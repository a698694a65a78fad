"""The four benchmark workloads.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Set-up makes every
input from the run's seed; the program receives only those inputs.  Every
operation's outputs are checked after its timed region; a failed check
marks the operation failed.

    train  the four criterion-8 plans through ``train_alternating``
    sweep  ``fairavi sweep`` over a 2-value lambda grid, from a JSONL file
           that set-up generates and saves
    probe  ``cli.build_report`` on a different model each operation
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from fairavi import cli
from fairavi import data as dt
from fairavi import evaluation as ev
from fairavi import model as md
from fairavi import training as tr

perf = time.perf_counter

# One epoch per phase and patience above every cap, so early stopping
# never changes the amount of work an operation does.
SCHEDULE = dict(max_epochs_pretrain=1, max_epochs_adv=1, max_outer=1,
                patience_pretrain=2, patience_adv=2, patience_outer=2)

# The plans of the headline run (acceptance criterion 8).
PLANS = (dict(variant="unprotected", lam=1.0),
         dict(variant="supervised-gender", lam=1.0),
         dict(variant="static-faces", lam=10.0, q=2),
         dict(variant="negative-sampling", lam=2.0, q=2, k=5))

SWEEP_GRID = (5.0, 10.0)
TRUNK_PHASES = ("pretrain-main", "joint")     # phases whose steps train the trunk
SHARED_PHASES = ("pretrain-main", "pretrain-adv")   # identical for every lambda


@dataclass(frozen=True)
class Scale:
    """Input sizes.  The defaults are the benchmark's; tests pass tiny ones."""
    n: int = 2000                     # corpus of train and probe
    sweep_n: int = 1000               # corpus written to JSONL for sweep
    corpus: dict = field(default_factory=dict)    # other GeneratorConfig fields
    dims: dict | None = None          # ModelDims fields; None keeps the defaults
    probe_models: int = 256           # most reports one probe run can make
    probe_base_clips: int = 400       # clips the probe models' base is fitted on


@dataclass
class Op:
    """One operation: its timed wall seconds, whether its outputs passed the
    checks, and the clips and figures its workload reports."""
    wall: float = 0.0
    clips: int = 0
    ok: bool = True
    error: str | None = None
    info: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@contextlib.contextmanager
def checking(op: Op):
    """Run output checks; a failure marks `op` failed instead of raising."""
    try:
        yield
    except Exception as e:  # noqa: BLE001 -- any error in a check fails the op
        op.ok = False
        op.error = f"{type(e).__name__}: {e}"


def op_seed(seed: int, index: int) -> int:
    """A fresh seed per operation, so no result is reused across operations."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class _Untraced:
    def op(self, index):
        return contextlib.nullcontext()


UNTRACED = _Untraced()


def measure(workload, seconds: float, tracer=UNTRACED, start: int = 0) -> list[Op]:
    """Run operations back to back until `seconds` have passed (at least one)."""
    ops = []
    deadline = perf() + seconds
    while True:
        index = start + len(ops)
        try:
            op = workload.run(index, tracer)
        except Exception as e:  # noqa: BLE001 -- the program failed this operation
            op = Op(ok=False, error=f"{type(e).__name__}: {e}")
        ops.append(op)
        if perf() >= deadline or index + 1 >= workload.capacity:
            return ops


# ------------------------------------------------------------------ checks

def check_unit(value, what: str) -> float:
    check(math.isfinite(value) and 0.0 <= value <= 1.0, f"{what} = {value} is not in [0, 1]")
    return value


def check_model(model, path) -> None:
    """Finite parameters, and a bit-exact save_model -> load_model round trip."""
    for name, node in model.params.items():
        check(np.all(np.isfinite(node.value)), f"parameter {name} is not finite")
    md.save_model(model, path)
    back = md.load_model(path)
    check((back.variant, back.modality, back.trained) ==
          (model.variant, model.modality, model.trained), "model header changed on reload")
    for name, node in model.params.items():
        other = back.params[name].value
        check(other.shape == node.value.shape and other.tobytes() == node.value.tobytes(),
              f"parameter {name} changed in a save/load round trip")


def check_losses(rows) -> None:
    """Every logged loss and epoch time is finite."""
    for row in rows:
        for key, value in row.items():
            if key not in ("epoch", "phase") and value is not None:
                check(math.isfinite(value), f"log {key} = {value} in {row['phase']}")


def read_log(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: (v if k == "phase" else (float(v) if v != "" else None))
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def trunk_epochs(phases) -> int:
    return sum(p in TRUNK_PHASES for p in phases)


def check_round_trip(before, after) -> None:
    """ids, splits, labels and arrays survive save_jsonl -> load_jsonl exactly."""
    check(len(before) == len(after), f"{len(before)} clips saved, {len(after)} loaded")
    for a, b in zip(before, after):
        check((a.id, a.video_id, a.split, a.y, a.z) == (b.id, b.video_id, b.split, b.y, b.z),
              f"clip {a.id}: fields changed in the round trip")
        for name in ("seq_language", "seq_audio", "seq_video", "face"):
            x, y = np.asarray(getattr(a, name)), getattr(b, name)
            check(x.shape == y.shape and x.tobytes() == y.tobytes(),
                  f"clip {a.id}: {name} changed in the round trip")


# --------------------------------------------------------------- workloads

class Workload:
    name = ""
    capacity = math.inf     # most operations one run can make

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def corpus(self, n: int) -> list:
        cfg = dt.GeneratorConfig(n=n, seed=self.seed, **self.scale.corpus)
        samples = dt.generate_synthetic(cfg)
        dt.split_group_disjoint(samples, seed=cfg.seed)
        return samples

    def dims(self):
        return md.ModelDims(**self.scale.dims) if self.scale.dims else None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int, tracer) -> Op:
        raise NotImplementedError

    def figures(self, ops) -> dict:
        """Workload-specific results, name -> (value, unit), for the log."""
        return {}

    def trace_metrics(self, ops) -> dict:
        """Per-layer figures that need more than spans (untraced `ops`)."""
        return {}


class Train(Workload):
    """The headline run in miniature: four plans, one after another, each
    with its own seed, on the default corpus at B=32."""

    name = "train"

    def setup(self):
        self.samples = self.corpus(self.scale.n)
        self.n_train = sum(s.split == "train" for s in self.samples)
        self.test = [s for s in self.samples if s.split == "test"]

    def run(self, index, tracer):
        runs = []
        t0 = perf()
        with tracer.op(index):
            for i, plan in enumerate(PLANS):
                seed = op_seed(self.seed, index * len(PLANS) + i)
                cfg = tr.TrainConfig(modality="multimodal", seed=seed, **SCHEDULE, **plan)
                model = md.HireabilityModel("multimodal", cfg.variant, self.dims(),
                                            q=cfg.q, k=cfg.k, seed=seed)
                t = perf()
                model, log = tr.train_alternating(cfg, model, self.samples)
                runs.append((model, log, perf() - t))
        op = Op(wall=perf() - t0)
        y_test = np.array([s.y for s in self.test])
        aucs = []
        with checking(op):
            for model, log, _ in runs:
                check_model(model, self.path("model.json"))
                check_losses([vars(r) for r in log.rows])
                check(math.isfinite(log.final_l_t_val), "final validation loss is not finite")
                _, y_hat = md.predict(model, self.test)
                aucs.append(check_unit(ev.auc(y_hat, y_test), f"{model.variant} test AUC"))
                op.clips += trunk_epochs(log.phases()) * self.n_train
            op.info = {"train_s": sum(r[2] for r in runs), "hire_auc": statistics.mean(aucs)}
        return op

    def figures(self, ops):
        ok = [o for o in ops if o.ok]
        seconds = sum(o.info["train_s"] for o in ok)
        return {"train_clips_per_s": (sum(o.clips for o in ok) / seconds if ok else 0.0,
                                      "clips/s"),
                "hire_auc": (statistics.mean(o.info["hire_auc"] for o in ok) if ok else 0.0,
                             "ratio")}


class Sweep(Workload):
    """``fairavi sweep`` through ``cli.main``: the CLI's thread fan-out,
    load_jsonl, manifest hashing and save_model.  Its lambda values share a
    bit-identical pretrain-main and pretrain-adv.  Set-up generates and saves
    the JSONL, so its setup_s is data-layer work with no autodiff in it; each
    operation's checks also load the file back and compare it exactly."""

    name = "sweep"

    def setup(self):
        t0 = perf()
        self.samples = self.corpus(self.scale.sweep_n)
        t1 = perf()
        self.data = self.path("sweep.jsonl")
        dt.save_jsonl(self.samples, self.data)
        self.io = {"gen_s": t1 - t0, "save_s": perf() - t1,
                   "bytes": os.path.getsize(self.data)}
        self.config = self.path("sweep-train.json")
        with open(self.config, "w") as fh:
            json.dump(SCHEDULE, fh)

    def run(self, index, tracer):
        out_dir = self.path(f"sweep-{index}")
        argv = ["sweep", "--data", self.data, "--variant", "static-faces",
                "--modality", "multimodal", "--grid", ",".join(f"{v:g}" for v in SWEEP_GRID),
                "--face-dim", "2", "--config", self.config, "--out-dir", out_dir,
                "--seed", str(op_seed(self.seed, index))]
        t0 = perf()
        with tracer.op(index), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        op = Op(wall=perf() - t0)
        with checking(op):
            check(code == 0, f"fairavi sweep exited with {code}")
            with open(os.path.join(out_dir, "selected.json")) as fh:
                selected = json.load(fh)["selected_lambda"]
            check(selected in SWEEP_GRID, f"selected lambda {selected} is not in the grid")
            logs = []
            for lam in SWEEP_GRID:
                path = os.path.join(out_dir, f"model_lambda{lam:g}.json")
                model = md.load_model(path)
                check(model.trained, f"{path} is not marked trained")
                check_model(model, self.path("model.json"))
                rows = read_log(path + ".log.csv")
                check_losses(rows)
                logs.extend(rows)
            shared = sum(r["seconds"] for r in logs if r["phase"] in SHARED_PHASES)
            op.info["shared_frac"] = shared / sum(r["seconds"] for r in logs)
            t0 = perf()
            loaded = dt.load_jsonl(self.data)
            op.info["load_s"] = perf() - t0
            check_round_trip(self.samples, loaded)
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    def figures(self, ops):
        ok = [o for o in ops if o.ok]
        n = len(self.samples)
        figures = {"gen_clips_per_s": (n / self.io["gen_s"], "clips/s"),
                   "save_clips_per_s": (n / self.io["save_s"], "clips/s"),
                   "jsonl_bytes_per_clip": (self.io["bytes"] / n, "bytes")}
        if ok:
            figures.update({
                "sweep_s": (statistics.median(o.wall for o in ok), "s"),
                "sweep_shared_frac": (statistics.median(o.info["shared_frac"] for o in ok),
                                      "ratio"),
                "load_clips_per_s": (n / statistics.median(o.info["load_s"] for o in ok),
                                     "clips/s")})
        return figures

    def trace_metrics(self, ops):
        """cli.sweep_speedup: the grid's serial run_training seconds over the
        sweep's wall seconds; cli.sweep_shared_frac from the epoch logs."""
        ok = [o for o in ops if o.ok]
        if not ok:
            return {}
        dataset = dt.load_jsonl(self.data)
        serial = 0.0
        for lam in SWEEP_GRID:
            cfg = tr.TrainConfig(variant="static-faces", modality="multimodal", lam=lam,
                                 q=2, seed=op_seed(self.seed, 0), **SCHEDULE)
            t = perf()
            cli.run_training(cfg, dataset)
            serial += perf() - t
        return {"cli.sweep_speedup": serial / statistics.median(o.wall for o in ok),
                "cli.sweep_shared_frac": statistics.median(o.info["shared_frac"] for o in ok)}


class Probe(Workload):
    """Forward-only reporting: three extract_representations, one predict,
    diagnose and modality_contributions per report, at chunk 512."""

    name = "probe"

    def setup(self):
        self.samples = self.corpus(self.scale.n)
        # Report cost does not depend on how well the weights fit, but the
        # disparate impact of the predictions needs both classes predicted,
        # so every model derives from one briefly fitted base.
        cfg = tr.TrainConfig(variant="unprotected", modality="multimodal", lr_joint=3e-3,
                             max_epochs_pretrain=2, patience_pretrain=3, seed=self.seed)
        base = md.HireabilityModel("multimodal", "unprotected", self.dims(), seed=self.seed)
        base, _ = tr.train_alternating(cfg, base, self.samples[:self.scale.probe_base_clips])
        rng = np.random.default_rng(self.seed)
        self.models = [base]
        for k in range(1, self.scale.probe_models):
            model = md.HireabilityModel("multimodal", "unprotected", self.dims(), seed=k)
            for name, node in model.params.items():
                ref = base.params[name].value
                node.value[...] = ref + 1e-3 * rng.standard_normal(ref.shape)
            model.trained = True
            self.models.append(model)
        self.capacity = len(self.models)

    def run(self, index, tracer):
        t0 = perf()
        with tracer.op(index):
            report = cli.build_report(self.models[index], self.samples, "gender")
        op = Op(wall=perf() - t0)
        with checking(op):
            check_unit(report.hire_auc, "hireability AUC")
            check_unit(report.diag_auc["gender"], "diagnostic AUC")
            check_unit(report.di_labels["gender"], "DI of labels")
            check_unit(report.di_predictions["gender"], "DI of predictions")
            op.info["probe_auc"] = report.diag_auc["gender"]
        return op

    def figures(self, ops):
        ok = [o for o in ops if o.ok]
        first = ops[0]   # the unperturbed base: a fixed representation per seed
        return {"report_s": (statistics.median(o.wall for o in ok) if ok else 0.0, "s"),
                "probe_auc": (first.info.get("probe_auc", 0.0), "ratio")}


WORKLOADS = {w.name: w for w in (Train, Sweep, Probe)}
