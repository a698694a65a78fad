"""Command-line orchestration.

    fairavi gen            synthesize a split, labeled dataset (JSONL)
    fairavi train          train one variant/modality, persist the model
    fairavi sweep          run the lambda grid and mark the selected value
    fairavi probe          diagnostic probes + fairness report for a model
    fairavi audit          split overlap and per-group label-rate table
    fairavi contributions  per-modality gated-vector norm summary (CSV)

Exit codes: 0 success, 2 configuration error, 3 data/variant contract
violation, 1 runtime failure.  Every command writes a manifest JSON next
to its primary output.  FAIRAVI_SEED serves as the seed fallback when
neither flag nor config provides one.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import evaluation as ev
from .data import (GeneratorConfig, generate_synthetic, load_jsonl, save_jsonl,
                   split_group_disjoint)
from .errors import ConfigError, ContractError
from .model import (FACE_DIMS, MODALITIES, VARIANTS, HireabilityModel, ModelDims,
                    load_model, modality_contributions, predict, save_model)
from .training import LAMBDA_GRID, TrainConfig, select_lambda, train_alternating


def _env_seed() -> int | None:
    raw = os.environ.get("FAIRAVI_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"FAIRAVI_SEED must be an integer, got {raw!r}")


def _resolve_seed(flag_seed, config_seed=None, default: int = 0) -> int:
    for candidate in (flag_seed, config_seed, _env_seed()):
        if candidate is not None:
            return int(candidate)
    return default


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(primary_out, command: str, config: dict, seed: int,
                    inputs: list, outputs: list, started: str) -> str:
    path = f"{primary_out}.manifest.json"
    doc = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "started_utc": started,
        "ended_utc": _now(),
        "outputs": [str(p) for p in outputs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e.msg})")


# ------------------------------------------------------------------ gen

def cmd_gen(args) -> int:
    started = _now()
    doc = _load_json(args.config) if args.config else {}
    ratios = tuple(doc.pop("split_ratios", (0.7, 0.15, 0.15)))
    cfg = GeneratorConfig.from_dict(doc)
    cfg.seed = _resolve_seed(args.seed, doc.get("seed"), cfg.seed)
    samples = generate_synthetic(cfg)
    split_group_disjoint(samples, ratios=ratios, seed=cfg.seed)
    save_jsonl(samples, args.out)
    manifest = _write_manifest(args.out, "gen",
                               {**dataclasses.asdict(cfg), "split_ratios": list(ratios)},
                               cfg.seed, [args.config] if args.config else [],
                               [args.out], started)
    print(f"wrote {len(samples)} samples to {args.out}")
    print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------- train

def _build_train_config(args) -> TrainConfig:
    doc = _load_json(args.config) if getattr(args, "config", None) else {}
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown train config fields: {sorted(unknown)}")
    cfg = TrainConfig(**doc)
    for flag, attr in (("variant", "variant"), ("modality", "modality"),
                       ("lam", "lam"), ("face_dim", "q"), ("k", "k"),
                       ("face_targets", "face_targets")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    cfg.seed = _resolve_seed(args.seed, doc.get("seed"), cfg.seed)
    return cfg.validate()


def _dims_from_data(samples) -> ModelDims:
    if not samples:
        raise ContractError("dataset is empty")
    s = samples[0]
    return ModelDims(input_dims={
        "language": np.asarray(s.seq_language).shape[1],
        "audio": np.asarray(s.seq_audio).shape[1],
        "video": np.asarray(s.seq_video).shape[1]})


def run_training(cfg: TrainConfig, dataset, observer=None):
    """Library entry point behind `fairavi train`."""
    model = HireabilityModel(cfg.modality, cfg.variant, _dims_from_data(dataset),
                             q=cfg.q, k=cfg.k, seed=cfg.seed)
    return train_alternating(cfg, model, dataset, observer=observer)


def cmd_train(args) -> int:
    started = _now()
    cfg = _build_train_config(args)
    dataset = load_jsonl(args.data)
    model, log = run_training(cfg, dataset)
    save_model(model, args.out)
    log_path = args.log or f"{args.out}.log.csv"
    log.to_csv(log_path)
    manifest = _write_manifest(args.out, "train", dataclasses.asdict(cfg), cfg.seed,
                               [args.data], [args.out, log_path], started)
    print(f"trained {cfg.variant}/{cfg.modality} (lambda={cfg.lam}, q={cfg.q}, k={cfg.k})")
    print(f"final validation L_T={log.final_l_t_val}"
          + ("" if log.final_l_a_val is None else f", L_A={log.final_l_a_val}"))
    print(f"model: {args.out}\nlog: {log_path}\nmanifest: {manifest}")
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    started = _now()
    try:
        grid = tuple(float(v) for v in args.grid.split(","))
    except ValueError:
        raise ConfigError(f"invalid lambda grid {args.grid!r}")
    if not grid:
        raise ConfigError("empty lambda grid")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"duplicate values in lambda grid {args.grid!r}")
    # every grid value's config is checked before any training starts
    configs = {lam: _build_train_config(argparse.Namespace(**vars(args), lam=lam))
               for lam in grid}
    dataset = load_jsonl(args.data)
    os.makedirs(args.out_dir, exist_ok=True)

    results, failures = {}, {}
    for lam, cfg in configs.items():
        try:
            model, log = run_training(cfg, dataset)
            out = os.path.join(args.out_dir, f"model_lambda{lam:g}.json")
            save_model(model, out)
            log.to_csv(out + ".log.csv")
            results[lam] = out, log
        except Exception as e:  # keep partial results
            failures[lam] = repr(e)
    outputs = [path for path, _ in results.values()]
    selected = None
    if results:
        selected = select_lambda({lam: (log.final_l_t_val, log.final_l_a_val or 0.0)
                                  for lam, (_, log) in results.items()})
        marker = os.path.join(args.out_dir, "selected.json")
        with open(marker, "w") as fh:
            json.dump({"selected_lambda": selected,
                       "model": results[selected][0],
                       "objective_by_lambda": {
                           str(lam): results[lam][1].final_l_t_val
                           - (results[lam][1].final_l_a_val or 0.0)
                           for lam in results}}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        outputs.append(marker)
    primary = os.path.join(args.out_dir, "sweep")
    _write_manifest(primary, "sweep",
                    {"grid": list(grid), "variant": args.variant,
                     "modality": args.modality, "failures": failures},
                    _resolve_seed(args.seed), [args.data], outputs, started)
    for lam, err in failures.items():
        print(f"lambda={lam:g} failed: {err}", file=sys.stderr)
    if selected is not None:
        print(f"selected lambda: {selected:g}")
    if failures:
        return 1
    return 0


# ---------------------------------------------------------------- probe

def _require_target(dataset, target: str) -> np.ndarray:
    z = [s.z for s in dataset]
    if any(v is None for v in z):
        raise ContractError(f"target column {target!r} absent from the dataset")
    classes = sorted(set(z))
    need = 2 if target == "gender" else 3
    if len(classes) != need:
        raise ContractError(
            f"target {target!r} expects {need} protected classes, data has {len(classes)}")
    return np.asarray(z, dtype=int)


def build_report(model, dataset, target: str) -> ev.MetricsReport:
    _require_target(dataset, target)
    split = {t: [s for s in dataset if s.split == t] for t in ("train", "val", "test")}
    for tag, part in split.items():
        if not part:
            raise ContractError(f"dataset has no {tag!r} split")
    reps = {t: ev.extract_representations(model, split[t]) for t in split}
    _, y_hat = predict(model, split["test"])
    y_test = reps["test"].y
    z_test = reps["test"].z
    diag = ev.diagnose(reps["train"].h, reps["train"].z, reps["val"].h, reps["val"].z,
                       reps["test"].h, z_test)
    preds = (y_hat >= 0.5).astype(int)
    report = ev.MetricsReport(
        model_name=f"{model.variant}/{model.modality}",
        hire_acc=ev.accuracy(y_hat, y_test),
        hire_auc=ev.auc(y_hat, y_test),
        diag_auc={target: diag["auc"]},
        diag_acc={target: diag["acc"]},
        di_labels={target: ev.disparate_impact(y_test, z_test)},
        di_predictions={target: ev.disparate_impact(preds, z_test)})
    if model.modality == "multimodal":
        _, summary = modality_contributions(model, split["test"])
        report.gmu_contributions = summary
    return report


def cmd_probe(args) -> int:
    started = _now()
    model = load_model(args.model)
    dataset = load_jsonl(args.data)
    report = build_report(model, dataset, args.target)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "metrics.csv")
    md_path = os.path.join(args.out_dir, "report.md")
    report.to_csv(csv_path)
    with open(md_path, "w") as fh:
        fh.write(report.to_markdown())
    _write_manifest(csv_path, "probe",
                    {"model": args.model, "target": args.target},
                    _resolve_seed(args.seed), [args.model, args.data],
                    [csv_path, md_path], started)
    print(report.to_markdown(), end="")
    return 0


# ---------------------------------------------------------------- audit

def cmd_audit(args) -> int:
    dataset = load_jsonl(args.data)
    split = {t: [s for s in dataset if s.split == t] for t in ("train", "val", "test")}
    if not any(split.values()):
        raise ContractError("dataset has no split tags")
    overlap = ev.audit_overlap(split["train"], split["test"], key=args.key)
    print(f"test/train group overlap: {overlap:.4f}")
    has_z = all(s.z is not None for s in dataset)
    lines = []
    if has_z:
        scopes = [("complete", dataset)] + [(t, split[t]) for t in ("train", "val", "test")
                                            if split[t]]
        header = f"{'group':<12}" + "".join(f"{name:>14}" for name, _ in scopes)
        print(header)
        lines.append("group," + ",".join(name for name, _ in scopes))
        classes = sorted({s.z for s in dataset})
        rows = {c: [] for c in classes}
        dis = []
        for _, part in scopes:
            y = np.array([s.y for s in part], dtype=float)
            z = np.array([s.z for s in part])
            rates = ev.group_rates(y, z, expected_groups=classes)
            for c in classes:
                count = int((z == c).sum())
                rows[c].append(f"{rates[c]:.3f} ({count})")
            dis.append(ev.di_from_rates(rates.values()))
        for c in classes:
            print(f"{'class ' + str(c):<12}" + "".join(f"{v:>14}" for v in rows[c]))
            lines.append(f"class {c}," + ",".join(v.replace(",", ";") for v in rows[c]))
        # DI shown truncated to 3 decimals, matching the reference table style
        shown = [f"{int(v * 1000) / 1000:.3f}" for v in dis]
        print(f"{'DI':<12}" + "".join(f"{v:>14}" for v in shown))
        lines.append("DI," + ",".join(f"{v!r}" for v in dis))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"overlap,{overlap!r}\n")
            for line in lines:
                fh.write(line + "\n")
        _write_manifest(args.out, "audit", {"key": args.key},
                        _resolve_seed(args.seed), [args.data], [args.out], _now())
    return 0


# -------------------------------------------------------- contributions

def cmd_contributions(args) -> int:
    started = _now()
    model = load_model(args.model)
    dataset = load_jsonl(args.data)
    part = [s for s in dataset if s.split == args.split] or dataset
    _, summary = modality_contributions(model, part)
    with open(args.out, "w") as fh:
        fh.write("modality,mean,q25,median,q75\n")
        for m, stats in summary.items():
            fh.write(f"{m},{stats['mean']!r},{stats['q25']!r},"
                     f"{stats['median']!r},{stats['q75']!r}\n")
    _write_manifest(args.out, "contributions",
                    {"model": args.model, "split": args.split},
                    _resolve_seed(args.seed), [args.model, args.data],
                    [args.out], started)
    print(f"wrote {args.out}")
    return 0


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

    t = sub.add_parser("train", help="train one variant")
    t.add_argument("--data", required=True)
    t.add_argument("--variant", choices=VARIANTS)
    t.add_argument("--modality", choices=MODALITIES + ("multimodal",))
    t.add_argument("--lambda", dest="lam", type=float)
    t.add_argument("--face-dim", dest="face_dim", type=int, choices=FACE_DIMS)
    t.add_argument("--k", type=int)
    t.add_argument("--face-targets", dest="face_targets",
                   help="JSON file of externally computed q-dim face embeddings "
                        "(video_id -> vector), replacing the built-in compressor")
    t.add_argument("--config", help="TrainConfig JSON")
    t.add_argument("--out", required=True)
    t.add_argument("--log")
    t.add_argument("--seed", type=int)
    t.set_defaults(fn=cmd_train)

    w = sub.add_parser("sweep", help="train across the lambda grid")
    w.add_argument("--data", required=True)
    w.add_argument("--variant", choices=VARIANTS)
    w.add_argument("--modality", choices=MODALITIES + ("multimodal",))
    w.add_argument("--grid", default=",".join(str(v) for v in LAMBDA_GRID))
    w.add_argument("--face-dim", dest="face_dim", type=int, choices=FACE_DIMS)
    w.add_argument("--k", type=int)
    w.add_argument("--config", help="TrainConfig JSON")
    w.add_argument("--out-dir", required=True)
    w.add_argument("--seed", type=int)
    w.set_defaults(fn=cmd_sweep)

    r = sub.add_parser("probe", help="diagnostic probes and fairness report")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--target", required=True, choices=("gender", "ethnicity"))
    r.add_argument("--out-dir", required=True)
    r.add_argument("--seed", type=int)
    r.set_defaults(fn=cmd_probe)

    a = sub.add_parser("audit", help="split overlap and initial-bias table")
    a.add_argument("--data", required=True)
    a.add_argument("--key", default="video_id")
    a.add_argument("--out")
    a.add_argument("--seed", type=int)
    a.set_defaults(fn=cmd_audit)

    c = sub.add_parser("contributions", help="per-modality GMU contribution norms")
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--split", default="test")
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=int)
    c.set_defaults(fn=cmd_contributions)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
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
