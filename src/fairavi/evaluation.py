"""Diagnostic probing and fairness/performance metrics.

Leakage of the protected variable is measured by logistic-regression
probes trained post hoc on the frozen 16-d representation: one fit over
the grid of both penalty norms by a log-spaced strength range, selected
on validation AUC.  Disparate impact uses the min-rate / max-rate
convention, which reduces to the unprivileged/privileged ratio in the
two-group case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import logistic
from .errors import ContractError
from .fileio import write_csv
from .model import PROTECTED_CLASSES, HireabilityModel, predict

THRESHOLD = 0.5                # a score at or above it predicts the positive class
PENALTIES = ("l2", "l1")       # the probes' penalty norms, in selection order
STRENGTHS = tuple(10.0 ** e for e in range(-4, 5))   # the probes' penalty strength grid
MAX_ITER = 300                 # descent steps per probe fit at most
TOL = 1e-7                     # a probe row stops once its step falls below this
PROBE_SEED = 0                 # seed of the probes' initial weights


class UndefinedMetricError(ContractError):
    """The metric is undefined on this input (e.g. one class absent)."""


# ----------------------------------------------------------------- ranking

def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their average rank."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc undefined: one class absent")
    ranks = _midranks(scores)
    r_pos = ranks[labels == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_ovr_auc(scores, labels) -> float:
    """Unweighted mean of one-vs-rest AUCs over the classes present."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(int)
    values = []
    for c in range(scores.shape[1]):
        if not np.any(labels == c):
            warnings.warn(f"class {c} absent from labels; skipped in macro AUC")
            continue
        values.append(auc(scores[:, c], (labels == c).astype(int)))
    if len(values) < 2:
        raise UndefinedMetricError("macro OvR AUC needs at least two classes present")
    return float(np.mean(values))


def accuracy(scores, labels) -> float:
    scores = np.asarray(scores)
    labels = np.asarray(labels).astype(int)
    pred = scores.argmax(axis=1) if scores.ndim == 2 else (scores >= THRESHOLD).astype(int)
    return float((pred == labels).mean())


# --------------------------------------------------------------- fairness

def di_from_rates(rates) -> float:
    """Lowest group positive rate over the highest."""
    rates = [float(r) for r in rates]
    if not rates:
        raise UndefinedMetricError("disparate impact undefined: no groups")
    if max(rates) == 0:
        raise UndefinedMetricError("disparate impact undefined: all positive rates are 0")
    return min(rates) / max(rates)


def group_rates(outcomes, groups, expected_groups=None) -> dict:
    outcomes = np.asarray(outcomes, dtype=np.float64)
    groups = np.asarray(groups)
    keys = np.unique(groups) if expected_groups is None else list(expected_groups)
    rates = {}
    for g in keys:
        members = outcomes[groups == g]
        if members.size == 0:
            raise UndefinedMetricError(f"disparate impact undefined: group {g!r} is empty")
        rates[g] = float(members.mean())
    return rates


def disparate_impact(outcomes, groups, expected_groups=None) -> float:
    return di_from_rates(group_rates(outcomes, groups, expected_groups).values())


def audit_overlap(train_samples, test_samples) -> float:
    """Fraction of test samples whose candidate (video_id) appears in the
    train split."""
    if not test_samples:
        raise UndefinedMetricError("overlap audit undefined: empty test split")
    train_groups = {s.video_id for s in train_samples}
    shared = sum(1 for s in test_samples if s.video_id in train_groups)
    return shared / len(test_samples)


# ----------------------------------------------------------------- probing

@dataclass
class LogisticProbe:
    w: np.ndarray          # (k, d): one row for a binary target, one per class for OvR
    b: np.ndarray          # (k,)
    penalty: str
    strength: float


def _fit_logistic(h, targets, strengths, l1) -> tuple[np.ndarray, np.ndarray]:
    """One regularized logistic regression per row of `targets` (R, n),
    row r at strength strengths[r] under the l1 norm where l1[r], else l2,
    all rows fitted in one loop; returns their (R, d) weights and (R,)
    intercepts.

    Full-batch gradient descent (l2) / proximal gradient (l1); the
    intercept is never penalized.  A row stops once its own step falls
    below TOL.  Stacked matmuls make the BLAS calls of `h @ w`,
    `h.T @ r` and `norm` on one row (a 2-D `h @ W.T` or an einsum norm
    would not), so each row's bytes equal a fit of that row alone."""
    n, d = h.shape
    aug = np.hstack([h, np.ones((n, 1))])
    lipschitz = np.linalg.norm(aug, 2) ** 2 / (4.0 * n)
    lam = np.asarray(strengths, dtype=np.float64)[:, None]
    l1 = np.asarray(l1, dtype=bool)[:, None]
    step = 1.0 / (lipschitz + np.where(l1, 0.0, lam))
    w = np.tile(1e-3 * np.random.default_rng(PROBE_SEED).standard_normal(d), (len(lam), 1))
    b = np.zeros(len(lam))
    y = np.asarray(targets, dtype=np.float64)
    w_out, b_out = np.empty_like(w), np.empty_like(b)
    live = np.arange(len(lam))           # output index of every row still fitting
    for _ in range(MAX_ITER):
        r = logistic(np.matmul(h, w[:, :, None])[:, :, 0] + b[:, None]) - y
        gw = np.matmul(h.T, r[:, :, None])[:, :, 0] / n
        gb = r.mean(axis=1)
        shrunk = w - step * gw           # l1: soft threshold at step * lam
        new_w = np.where(l1, np.sign(shrunk) * np.maximum(np.abs(shrunk) - step * lam, 0.0),
                         w - step * (gw + lam * w))
        new_b = b - step[:, 0] * gb
        dw = new_w - w
        delta = np.sqrt(np.matmul(dw[:, None, :], dw[:, :, None]))[:, 0, 0] + np.abs(new_b - b)
        w, b = new_w, new_b
        done = delta < TOL
        if done.any():
            w_out[live[done]], b_out[live[done]] = w[done], b[done]
            live, w, b, y, step, lam, l1 = (a[~done] for a in (live, w, b, y, step, lam, l1))
            if not live.size:
                break
    w_out[live], b_out[live] = w, b
    return w_out, b_out


def _scores_auc(scores, z, positive) -> float:
    """AUC of class `positive` for (n,) scores, macro OvR AUC for (n, C)."""
    if scores.ndim == 2:
        return macro_ovr_auc(scores, z)
    return auc(scores, (z == positive).astype(int))


def fit_probe(h_train, z_train, h_val, z_val):
    """Fit a probe at every (penalty, strength) of PENALTIES x STRENGTHS,
    every (penalty, strength, class) row in one stacked loop, and return
    (probe, val_auc) for the first with the best validation AUC.  A binary
    target gives a one-row probe for its larger class, a multiclass target
    one row per class, scored by macro OvR AUC."""
    h_train = np.asarray(h_train, dtype=np.float64)
    z_train = np.asarray(z_train).astype(int)
    z_val = np.asarray(z_val).astype(int)
    classes = np.unique(z_train)
    if classes.size < 2:
        raise ContractError("probe training data has a single class")
    positive = classes.max()
    labels = [positive] if classes.size == 2 else range(positive + 1)
    targets = np.array([z_train == c for c in labels])
    k = len(targets)
    grid = [(penalty, s) for penalty in PENALTIES for s in STRENGTHS]
    w, b = _fit_logistic(h_train, np.tile(targets, (len(grid), 1)),
                         np.repeat([s for _, s in grid], k),
                         np.repeat([penalty == "l1" for penalty, _ in grid], k))
    best, best_auc = None, -np.inf
    for i, (penalty, strength) in enumerate(grid):
        probe = LogisticProbe(w[i * k:(i + 1) * k], b[i * k:(i + 1) * k], penalty, strength)
        val_auc = _scores_auc(probe_scores(probe, h_val), z_val, positive)
        if val_auc > best_auc:
            best, best_auc = probe, val_auc
    return best, best_auc


def probe_scores(probe, h) -> np.ndarray:
    """(n,) scores of a one-row probe, (n, k) one-vs-rest scores otherwise."""
    h = np.asarray(h, dtype=np.float64)
    scores = np.stack([logistic(h @ w + b) for w, b in zip(probe.w, probe.b)], axis=1)
    return scores[:, 0] if len(probe.w) == 1 else scores


def diagnose(h_train, z_train, h_val, z_val, h_test, z_test) -> dict:
    """The validation-selected probe's penalty, strength and validation
    AUC, with its test AUC and accuracy."""
    probe, val_auc = fit_probe(h_train, z_train, h_val, z_val)
    z_test = np.asarray(z_test).astype(int)
    scores = probe_scores(probe, h_test)
    return {"val_auc": val_auc,
            "auc": _scores_auc(scores, z_test, np.asarray(z_train).astype(int).max()),
            "acc": accuracy(scores, z_test), "penalty": probe.penalty, "strength": probe.strength}


# ----------------------------------------------------- representation dump

@dataclass
class Representations:
    h: np.ndarray
    y: np.ndarray
    z: np.ndarray          # -1 where absent


def extract_representations(model: HireabilityModel, samples) -> Representations:
    """Inference-mode 16-d representations paired with labels and groups."""
    if not getattr(model, "trained", False):
        raise ContractError("extract_representations: model has not been trained")
    h, _ = predict(model, samples)
    return Representations(
        h=h,
        y=np.array([s.y for s in samples], dtype=int),
        z=np.array([-1 if s.z is None else int(s.z) for s in samples], dtype=int))


# ------------------------------------------------------------------ report

@dataclass
class MetricsReport:
    model_name: str
    hire_acc: float
    hire_auc: float
    diag_auc: dict = field(default_factory=dict)     # target -> test AUC
    diag_acc: dict = field(default_factory=dict)
    di_labels: dict = field(default_factory=dict)    # target -> DI of ground truth
    di_predictions: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        per_target = {"diag_auc": self.diag_auc, "diag_acc": self.diag_acc,
                      "di_pred": self.di_predictions, "di_label": self.di_labels}
        cols = {"model": self.model_name, "hire_acc": self.hire_acc, "hire_auc": self.hire_auc,
                **{f"{name}_{t}": d.get(t) for name, d in per_target.items()
                   for t in PROTECTED_CLASSES},
                "threshold": THRESHOLD, "di_convention": "min-rate/max-rate",
                "probe_note": "test AUC of the validation-selected probe over the l2/l1 x "
                              "strength grid"}
        write_csv(path, [cols.keys(), cols.values()])

    def to_markdown(self) -> str:
        def cell(d, k):
            return f"{d[k]:.3f}" if k in d else "-"
        lines = [
            "| Model | Hireability ACC | Hireability AUC | AUC Gender | AUC Ethnicity "
            "| DI Gender | DI Ethnicity |",
            "|---|---|---|---|---|---|---|",
            f"| {self.model_name} | {self.hire_acc:.3f} | {self.hire_auc:.3f} "
            f"| {cell(self.diag_auc, 'gender')} | {cell(self.diag_auc, 'ethnicity')} "
            f"| {cell(self.di_predictions, 'gender')} | {cell(self.di_predictions, 'ethnicity')} |",
        ]
        return "\n".join(lines) + "\n"
