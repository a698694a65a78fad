"""Command-line orchestration.

    fairavi gen            synthesize a split, labeled dataset (JSONL)
    fairavi train          train one variant/modality, persist the model
    fairavi sweep          train the lambda grid on one shared pretrain, then
                           write every model and mark the selected one
    fairavi probe          diagnostic probes + fairness report for a model
    fairavi audit          test clips whose video_id is in train, and the
                           per-group label-rate table
    fairavi contributions  per-modality gated-vector norm summary of one
                           split (CSV)

Exit codes: 0 success, 2 configuration error, 3 data/variant contract
violation, 1 runtime failure.  A --data, --model or --face-targets file
that cannot be opened for reading exits 3, a --config file 2.  An output
path that is a directory, is written twice or is an input exits 1 before
any data is read.  After the command succeeds, `main` writes its manifest:
the sha256 of every input file read, and every file written.  FAIRAVI_SEED
serves as the seed fallback when neither flag nor config provides one.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import os
import sys

import numpy as np

from . import evaluation as ev
from .data import (SPLITS, GeneratorConfig, generate_synthetic, load_jsonl, save_jsonl,
                   split_group_disjoint)
from .errors import ConfigError, ContractError, check_fields
from .fileio import atomic_write, read_json, write_csv, write_json
from .model import (FACE_DIMS, MODALITIES, PROTECTED_CLASSES, VARIANTS, HireabilityModel,
                    ModelDims, load_model, modality_contributions, predict, protected_labels,
                    save_model)
from .training import LAMBDA_GRID, TrainConfig, alternate, pretrain, select_lambda


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, config: dict, seed: int | None) -> None:
    """Write the last of `args.outputs`, the manifest: the command, config, seed, sha256 of
    every input file read (--config, --data, --model, face targets) and other outputs."""
    inputs = [getattr(args, attr, None) for attr in ("config", *INPUT_FLAGS)]
    *written, (_, path) = args.outputs
    write_json(path, {
        "command": args.command,
        "config": config,
        "seed": seed,
        "input_hashes": {str(p): _sha256(p) for p in inputs + [config.get("face_targets")] if p},
        "started_utc": args.started,
        "ended_utc": _now(),
        "outputs": [p for _, p in written],
    })


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config(cls, path, flag_seed, flags=None):
    """The config dataclass `cls` built from the JSON object in the --config
    file at `path` (or the defaults) with the fields in `flags` replaced,
    then validated, its seed taken from --seed, else the file, else
    FAIRAVI_SEED, else the default."""
    doc = {}
    if path is not None:
        doc = read_json(path, ConfigError, "--config ")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: a config must be a JSON object, got {doc!r:.40}")
    try:   # flags apply first: a file's face_targets needs --variant static-faces
        cfg = cls(**{**check_fields(cls, doc), **(flags or {})}).validate()
    except ConfigError as e:
        where = " + ".join([str(path)] * (path is not None) + ["flags"] * bool(flags))
        raise ConfigError(f"{where}: {e}") from None
    env = None if "seed" in doc else os.environ.get("FAIRAVI_SEED")
    source, raw = ("--seed", flag_seed) if flag_seed is not None else ("FAIRAVI_SEED", env)
    if raw is not None:
        if not str(raw).isdecimal():
            raise ConfigError(f"{source} must be a non-negative integer, got {raw!r}")
        cfg.seed = int(raw)
    return cfg


INPUT_FLAGS = {"data": "--data", "model": "--model", "face_targets": "--face-targets"}


def _check_inputs(args) -> None:
    """Exit 3 unless every input file the command was given opens for reading."""
    for attr, flag in INPUT_FLAGS.items():
        try:
            if (path := getattr(args, attr, None)) is not None:
                with open(path, "rb"):
                    pass
        except OSError as e:
            raise ContractError(f"{flag} {path}: cannot read ({e.strerror})")


def _outputs(args) -> list:
    """Every file the command writes, in write order with the manifest last, each as
    (the `--flag value` it derives from, its path); none for audit without --out."""
    if args.command == "audit" and not args.out:
        return []
    if args.command == "sweep":
        models = [f"model_lambda{lam:g}.json" for lam in _parse_grid(args.grid)]
        rest = ["selected.json", "sweep"]
    elif args.command == "probe":
        models, rest = [], ["metrics.csv", "report.md", "metrics.csv"]
    elif args.command == "train":
        models, rest = [args.out], [args.out]
    else:
        models, rest = [], [args.out, args.out]
    where = getattr(args, "out_dir", "")
    source = f"--out-dir {where}" if "out_dir" in args else f"--out {args.out}"
    files = [(source, os.path.join(where, p))
             for p in [n for m in models for n in (m, f"{m}.log.csv")] + rest]
    if getattr(args, "log", None):
        files[1] = (f"--log {args.log}", args.log)
    *written, (source, primary) = files
    return written + [(source, f"{primary}.manifest.json")]


def _check_outputs(args) -> None:
    """Exit 1 if a file the command writes is a directory, is listed twice, is an input
    file named on the command line, or lies in no directory (for --out-dir, which is
    made: its nearest existing ancestor is not a directory)."""
    taken = {os.path.realpath(p): f"also the {flag} input" for attr, flag in
             {**INPUT_FLAGS, "config": "--config"}.items() if (p := getattr(args, attr, None))}
    for source, path in args.outputs:
        near = os.path.dirname(path) or "."
        while "out_dir" in args and not os.path.exists(near):
            near = os.path.dirname(near) or "."
        if os.path.isdir(path):
            raise IsADirectoryError(f"{source}: {path} is a directory")
        if not os.path.isdir(near):
            raise NotADirectoryError(f"{source}: {near} is not a directory")
        if (real := os.path.realpath(path)) in taken:
            raise ValueError(f"{source}: {path} is {taken[real]}")
        taken[real] = "written twice"


# ------------------------------------------------------------------ gen

def cmd_gen(args) -> tuple:
    cfg = _load_config(GeneratorConfig, args.config, args.seed)
    samples = generate_synthetic(cfg)
    split_group_disjoint(samples, ratios=cfg.split_ratios, seed=cfg.seed)
    out, manifest = (p for _, p in args.outputs)
    save_jsonl(samples, out)
    print(f"wrote {len(samples)} samples to {out}")
    print(f"manifest: {manifest}")
    return dataclasses.asdict(cfg), cfg.seed


# ---------------------------------------------------------------- train

def _build_train_config(args) -> TrainConfig:
    flags = {f: v for f in ("variant", "modality", "lam", "q", "k", "face_targets")
             if (v := getattr(args, f, None)) is not None}
    cfg = _load_config(TrainConfig, args.config, args.seed, flags)
    for source, path in args.outputs:   # --face-targets was checked with the other inputs
        if cfg.face_targets and os.path.realpath(path) == os.path.realpath(cfg.face_targets):
            raise ValueError(f"{source}: {path} is also the face_targets input of "
                             f"--config {args.config}")
    return cfg


def _new_model(cfg: TrainConfig, samples) -> HireabilityModel:
    """An untrained model for cfg, sized to the first sample's feature widths."""
    if not samples:
        raise ContractError("dataset is empty")
    widths = {m: np.asarray(getattr(samples[0], f"seq_{m}")).shape[1] for m in MODALITIES}
    return HireabilityModel(cfg.modality, cfg.variant, ModelDims(input_dims=widths),
                            q=cfg.q, k=cfg.k, seed=cfg.seed)


def run_training(cfg: TrainConfig, dataset, observer=None, grid=None) -> dict:
    """Library entry point behind `fairavi train` and `sweep`: one pretrain,
    which never reads lambda, then for each lambda of `grid` (default
    `(cfg.lam,)`) the joint/refit loop on a fork of that state.  Returns
    {lambda: (model, log)} in grid order."""
    state = pretrain(cfg, _new_model(cfg, dataset), dataset, observer)
    return {lam: alternate(state.fork(), lam, observer) for lam in grid or (cfg.lam,)}


def cmd_train(args) -> tuple:
    cfg = _build_train_config(args)
    dataset = load_jsonl(args.data)
    model, log = run_training(cfg, dataset)[cfg.lam]
    model_path, log_path, manifest = (p for _, p in args.outputs)
    save_model(model, model_path)
    log.to_csv(log_path)
    print(f"trained {cfg.variant}/{cfg.modality} (lambda={cfg.lam}, q={cfg.q}, k={cfg.k})")
    print(f"final validation L_T={log.final_l_t_val}"
          + ("" if log.final_l_a_val is None else f", L_A={log.final_l_a_val}"))
    print(f"model: {model_path}\nlog: {log_path}\nmanifest: {manifest}")
    return dataclasses.asdict(cfg), cfg.seed


# ---------------------------------------------------------------- sweep

def _parse_grid(text: str) -> tuple:
    try:
        grid = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"invalid lambda grid {text!r}")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"duplicate values in lambda grid {text!r}")
    return grid


def cmd_sweep(args) -> tuple:
    grid = _parse_grid(args.grid)
    cfg = _build_train_config(args)
    for lam in grid:   # every grid value's config is checked before any training starts
        dataclasses.replace(cfg, lam=lam).validate()
    dataset = load_jsonl(args.data)
    results = run_training(cfg, dataset, grid=grid)   # all or nothing: then write
    *files, marker, _ = (p for _, p in args.outputs)
    os.makedirs(args.out_dir, exist_ok=True)
    for (model, log), model_path, log_path in zip(results.values(), files[::2], files[1::2]):
        save_model(model, model_path)
        log.to_csv(log_path)
    losses = {lam: (log.final_l_t_val, log.final_l_a_val or 0.0)
              for lam, (_, log) in results.items()}
    selected = select_lambda(losses)
    write_json(marker, {"selected_lambda": selected, "model": files[2 * grid.index(selected)],
                        "objective_by_lambda": {str(lam): l_t - l_a
                                                for lam, (l_t, l_a) in losses.items()}})
    ran = {**dataclasses.asdict(cfg), "grid": list(grid)}
    del ran["lam"]      # each run's lambda is its grid value
    print(f"selected lambda: {selected:g}")
    return ran, cfg.seed


# ---------------------------------------------------------------- probe

def build_report(model, dataset, target: str) -> ev.MetricsReport:
    split = {t: [s for s in dataset if s.split == t] for t in SPLITS}
    for tag, part in split.items():
        if not part:
            raise ContractError(f"dataset has no {tag!r} split")
    z = protected_labels(split, target)
    reps = {t: ev.extract_representations(model, split[t]) for t in ("train", "val")}
    h_test, y_hat = predict(model, split["test"])
    y_test = np.array([s.y for s in split["test"]], dtype=int)
    diag = ev.diagnose(reps["train"].h, z["train"], reps["val"].h, z["val"], h_test, z["test"])
    preds = (y_hat >= ev.THRESHOLD).astype(int)
    return ev.MetricsReport(
        model_name=f"{model.variant}/{model.modality}",
        hire_acc=ev.accuracy(y_hat, y_test),
        hire_auc=ev.auc(y_hat, y_test),
        diag_auc={target: diag["auc"]},
        diag_acc={target: diag["acc"]},
        di_labels={target: ev.disparate_impact(y_test, z["test"])},
        di_predictions={target: ev.disparate_impact(preds, z["test"])})


def _trained_model(path) -> HireabilityModel:
    model = load_model(path)
    if not model.trained:
        raise ContractError(f"--model {path}: model has not been trained")
    return model


def cmd_probe(args) -> tuple:
    model = _trained_model(args.model)
    dataset = load_jsonl(args.data)
    report = build_report(model, dataset, args.target)
    csv_path, md_path, _ = (p for _, p in args.outputs)
    os.makedirs(args.out_dir, exist_ok=True)
    report.to_csv(csv_path)
    with atomic_write(md_path) as fh:
        fh.write(report.to_markdown())
    print(report.to_markdown(), end="")
    return {"model": args.model, "target": args.target}, ev.PROBE_SEED


# ---------------------------------------------------------------- audit

def cmd_audit(args) -> tuple:
    dataset = load_jsonl(args.data)
    if not dataset:
        raise ContractError("dataset is empty")
    split = {t: [s for s in dataset if s.split == t] for t in SPLITS}
    overlap = ev.audit_overlap(split["train"], split["test"])
    print(f"test/train group overlap: {overlap:.4f}")
    rows = [("overlap", overlap)]
    if all(s.z is not None for s in dataset):
        scopes = [("complete", dataset)] + [(t, split[t]) for t in SPLITS if split[t]]
        print(f"{'group':<12}" + "".join(f"{name:>14}" for name, _ in scopes))
        rows.append(["group"] + [name for name, _ in scopes])
        classes = sorted({s.z for s in dataset})
        cells = {c: [] for c in classes}
        dis = []
        for _, part in scopes:
            y = np.array([s.y for s in part], dtype=float)
            z = np.array([s.z for s in part])
            rates = ev.group_rates(y, z, expected_groups=classes)
            for c in classes:
                cells[c].append(f"{rates[c]:.3f} ({int((z == c).sum())})")
            dis.append(ev.di_from_rates(rates.values()))
        for c in classes:
            print(f"{'class ' + str(c):<12}" + "".join(f"{v:>14}" for v in cells[c]))
            rows.append([f"class {c}"] + cells[c])
        # DI shown truncated to 3 decimals, matching the reference table style
        shown = [f"{int(v * 1000) / 1000:.3f}" for v in dis]
        print(f"{'DI':<12}" + "".join(f"{v:>14}" for v in shown))
        rows.append(["DI"] + dis)
    if args.outputs:   # none without --out
        write_csv(args.outputs[0][1], rows)
    return {}, None


# -------------------------------------------------------- contributions

def cmd_contributions(args) -> tuple:
    model = _trained_model(args.model)
    dataset = load_jsonl(args.data)
    part = [s for s in dataset if s.split == args.split]
    if not part:
        raise ContractError(f"dataset has no {args.split!r} split")
    _, summary = modality_contributions(model, part)
    out, _ = (p for _, p in args.outputs)
    write_csv(out, [("modality", "mean", "q25", "median", "q75"),
                    *([m, *stats.values()] for m, stats in summary.items())])
    print(f"wrote {out}")
    return {"model": args.model, "split": args.split}, None


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fairavi", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--config", help="GeneratorConfig JSON")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int)
    g.set_defaults(fn=cmd_gen)

    training = argparse.ArgumentParser(add_help=False)   # flags train and sweep share
    training.add_argument("--data", required=True)
    training.add_argument("--variant", choices=VARIANTS)
    training.add_argument("--modality", choices=MODALITIES + ("multimodal",))
    training.add_argument("--face-dim", dest="q", type=int, choices=FACE_DIMS)
    training.add_argument("--k", type=int)
    training.add_argument("--config", help="TrainConfig JSON")
    training.add_argument("--seed", type=int)

    t = sub.add_parser("train", help="train one variant", parents=[training])
    t.add_argument("--lambda", dest="lam", type=float)
    t.add_argument("--face-targets", dest="face_targets",
                   help="JSON file of externally computed q-dim face embeddings "
                        "(video_id -> vector), replacing the built-in compressor")
    t.add_argument("--out", required=True)
    t.add_argument("--log")
    t.set_defaults(fn=cmd_train)

    w = sub.add_parser("sweep", help="train across the lambda grid", parents=[training])
    w.add_argument("--grid", default=",".join(str(v) for v in LAMBDA_GRID))
    w.add_argument("--out-dir", required=True)
    w.set_defaults(fn=cmd_sweep)

    r = sub.add_parser("probe", help="diagnostic probes and fairness report")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--target", required=True, choices=tuple(PROTECTED_CLASSES))
    r.add_argument("--out-dir", required=True)
    r.set_defaults(fn=cmd_probe)

    a = sub.add_parser("audit", help="split overlap and initial-bias table")
    a.add_argument("--data", required=True)
    a.add_argument("--out")
    a.set_defaults(fn=cmd_audit)

    c = sub.add_parser("contributions", help="per-modality GMU contribution norms")
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--split", default="test", choices=SPLITS)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_contributions)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = _now()
    try:
        _check_inputs(args)
        args.outputs = _outputs(args)
        _check_outputs(args)
        config, seed = args.fn(args)
        if args.outputs:
            _write_manifest(args, config, seed)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ContractError as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 -- runtime failures map to exit 1
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
