"""Losses, Adam, the alternating adversarial training strategy and
lambda-grid selection.

The joint objective is realized with a gradient reversal node: the
adversarial branch always minimizes its own loss, while the trunk
receives that loss's gradient scaled by -lambda, which is exactly the
min-max trade-off between the hireability and privacy objectives.

Training proceeds in phases:

  pretrain-main  trunk + hireability head on the task loss
  pretrain-adv   adversarial branch alone, trunk frozen
  outer loop     one joint epoch through the reversal node, then the
                 adversary is reinitialized and retrained to validation
                 convergence; stops when the validation combined
                 objective L_T - lambda * L_A stops improving

The adversary-only phases run against representations cached from the
frozen trunk in inference mode, so they are deterministic and cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Node
from .data import apply_compressor, blind, fit_compressor, load_face_targets
from .errors import ConfigError, ContractError
from .model import (FACE_DIMS, MODALITIES, VARIANTS, HireabilityModel,
                    NegativeSamplingBatch, batch_sequences, predict)

LAMBDA_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
SUPERVISED_VARIANTS = ("supervised-gender", "supervised-ethnicity")


@dataclass
class TrainConfig:
    variant: str = "unprotected"
    modality: str = "multimodal"
    lam: float = 1.0
    k: int = 5
    q: int = 2
    batch_size: int = 32
    lr_joint: float = 1e-4
    lr_adv: float = 3e-3
    l2: float = 1e-4
    dropout: float = 0.2
    clip: float = 1.0
    patience_pretrain: int = 5
    patience_adv: int = 3
    patience_outer: int = 3
    max_epochs_pretrain: int = 200
    max_epochs_adv: int = 80
    max_outer: int = 40
    face_targets: str | None = None   # external q-dim embeddings for static-faces
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.modality not in MODALITIES + ("multimodal",):
            raise ConfigError(f"unknown modality {self.modality!r}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be nonnegative, got {self.lam}")
        for name in ("lr_joint", "lr_adv", "batch_size", "clip",
                     "patience_pretrain", "patience_adv", "patience_outer"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        # with no adversary epoch the starting objective is -inf and no joint
        # epoch could ever be kept
        if self.max_epochs_adv < 1:
            raise ConfigError(f"max_epochs_adv must be at least 1, got {self.max_epochs_adv}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.k < 2:
            raise ConfigError(f"k must be at least 2, got {self.k}")
        if self.q not in FACE_DIMS:
            raise ConfigError(f"face dimension q must be one of {FACE_DIMS}, got {self.q}")
        return self


# ------------------------------------------------------------------ losses

def bce_loss(y_hat, y) -> Node:
    """Mean binary cross-entropy; probabilities clamped to [1e-12, 1-1e-12]."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise ContractError("bce_loss: empty batch")
    p = ad.clip(ad.constant(y_hat), 1e-12, 1.0 - 1e-12)
    ll = ad.add(ad.mul(ad.constant(y), ad.log(p)),
                ad.mul(ad.constant(1.0 - y), ad.log(ad.sub(ad.constant(1.0), p))))
    return ad.neg(ad.mean(ll))


def cce_loss(z_hat, z_onehot) -> Node:
    """Mean negative log-likelihood of the true class."""
    z_onehot = np.asarray(z_onehot, dtype=np.float64)
    if z_onehot.size == 0:
        raise ContractError("cce_loss: empty batch")
    p = ad.clip(ad.constant(z_hat), 1e-12, 1.0)
    return ad.neg(ad.mean(ad.sum_(ad.mul(ad.constant(z_onehot), ad.log(p)), axis=-1)))


def mse_face_loss(w_pred, w_prime) -> Node:
    """Mean over samples of the squared Euclidean residual norm."""
    w_pred = ad.constant(w_pred)
    w_prime = np.asarray(w_prime, dtype=np.float64)
    if w_pred.value.shape != w_prime.shape:
        raise ad.ShapeMismatch(
            f"mse_face_loss: prediction {w_pred.value.shape} vs target {w_prime.shape}")
    r = ad.sub(ad.constant(w_prime), w_pred)
    return ad.mean(ad.sum_(ad.mul(r, r), axis=-1))


def ns_loss(p, positive_index) -> Node:
    """Mean -log p at the true-candidate position."""
    p = ad.constant(p)
    pos = np.asarray(positive_index)
    n, k = p.value.shape
    if pos.min() < 0 or pos.max() >= k:
        raise ContractError(f"ns_loss: positive index out of range [0, {k})")
    p_pos = ad.slice_(p, (np.arange(n), pos))
    return ad.neg(ad.mean(ad.log(ad.clip(p_pos, 1e-12, 1.0))))


def onehot(z, n_classes: int) -> np.ndarray:
    z = np.asarray(z, dtype=int)
    out = np.zeros((z.size, n_classes))
    out[np.arange(z.size), z] = 1.0
    return out


# -------------------------------------------------------------------- Adam

class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Node], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(p.value) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.value) for n, p in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float | None = None) -> None:
        """One update; a non-finite gradient raises before any state changes."""
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise ContractError(f"non-finite gradient for parameter {name}")
        lr = self.lr if lr is None else lr
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
            self.params[name].value -= lr * update


# ---------------------------------------------------------------- train log

@dataclass
class LogRow:
    epoch: int
    phase: str
    l_t_train: float | None
    l_t_val: float | None
    l_a_train: float | None
    l_a_val: float | None
    objective_val: float | None
    seconds: float


CSV_HEADER = "epoch,phase,l_t_train,l_t_val,l_a_train,l_a_val,objective_val,seconds"


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)
    adv_reinit_seeds: list = field(default_factory=list)
    compressor_fingerprint: str | None = None
    final_l_t_val: float | None = None
    final_l_a_val: float | None = None
    best_objective: float | None = None

    def add(self, **kw) -> None:
        self.rows.append(LogRow(epoch=len(self.rows), **kw))

    def phases(self) -> list[str]:
        return [r.phase for r in self.rows]

    def to_csv(self, path) -> None:
        def fmt(v):
            return "" if v is None else repr(float(v))
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(",".join([str(r.epoch), r.phase, fmt(r.l_t_train),
                                   fmt(r.l_t_val), fmt(r.l_a_train), fmt(r.l_a_val),
                                   fmt(r.objective_val), repr(float(r.seconds))]) + "\n")


# ------------------------------------------------------- adversarial targets

class _AdversaryTask:
    """Per-variant targets and loss for the adversarial branch.

    Built from blinded records for the indirect variants; only the
    supervised variants ever look at the protected label.
    """

    def __init__(self, cfg: TrainConfig, train, val, seed: int):
        self.variant = cfg.variant
        self.fingerprint = None
        self._ns = None
        if self.variant in SUPERVISED_VARIANTS:
            n_classes = 2 if self.variant == "supervised-gender" else 3
            for s in list(train) + list(val):
                if s.z is None:
                    raise ContractError("protected variable required for the supervised variant")
            zs = {"train": np.array([s.z for s in train], dtype=int),
                  "val": np.array([s.z for s in val], dtype=int)}
            observed = int(max(zs["train"].max(), zs["val"].max())) + 1
            if observed > n_classes:
                raise ContractError(
                    f"{self.variant} expects at most {n_classes} protected classes, "
                    f"data has {observed}")
            self.z = zs
            self.n_classes = n_classes
        elif self.variant == "static-faces":
            if cfg.face_targets:
                lookup = load_face_targets(cfg.face_targets, cfg.q)
                missing = {s.video_id for s in list(train) + list(val)} - set(lookup)
                if missing:
                    raise ContractError(
                        f"face targets file lacks {len(missing)} video id(s), "
                        f"e.g. {sorted(missing)[:3]}")
                self.fingerprint = "external"
                self.targets = {split: np.stack([lookup[s.video_id] for s in part])
                                for split, part in (("train", train), ("val", val))}
            else:
                train_faces = _candidate_faces(train)
                proj = fit_compressor(np.stack(list(train_faces.values())), cfg.q,
                                      seed=seed)
                self.fingerprint = proj.fingerprint
                self.targets = {
                    "train": apply_compressor(proj, np.stack([np.asarray(s.face) for s in train])),
                    "val": apply_compressor(proj, np.stack([np.asarray(s.face) for s in val])),
                }
        elif self.variant == "negative-sampling":
            self._ns = _NegativeSampler(train, val, cfg.k, seed)

    def resample(self, seed: int) -> None:
        if self._ns is not None:
            self._ns.resample_train(seed)

    def loss(self, model: HireabilityModel, h: Node, idx: np.ndarray, split: str) -> Node:
        if self.variant == "supervised-gender":
            return bce_loss(model.head_supervised(h), self.z[split][idx])
        if self.variant == "supervised-ethnicity":
            return cce_loss(model.head_supervised(h),
                            onehot(self.z[split][idx], self.n_classes))
        if self.variant == "static-faces":
            return mse_face_loss(model.head_static_faces(h), self.targets[split][idx])
        faces, pos = self._ns.batch(split, idx)
        _, p = model.head_negative_sampling(h, NegativeSamplingBatch(faces, pos))
        return ns_loss(p, pos)

    def evaluate(self, model: HireabilityModel, h_cache: np.ndarray, split: str,
                 chunk: int = 512) -> float:
        """Mean loss over cached representations; the negative-sampling
        validation loss is averaged over the sampler's fixed draws."""
        def one_pass() -> float:
            n = h_cache.shape[0]
            total = 0.0
            for lo in range(0, n, chunk):
                idx = np.arange(lo, min(lo + chunk, n))
                loss = self.loss(model, ad.constant(h_cache[idx]), idx, split)
                total += float(loss.value) * idx.size
            return total / n

        if split != "val" or self._ns is None:
            return one_pass()
        values = []
        for i in range(len(self._ns.val_assignments)):
            self._ns.use_val_draw(i)
            values.append(one_pass())
        return float(np.mean(values))


def _candidate_faces(samples) -> dict:
    """One face vector per video id (faces are constant within a candidate)."""
    faces = {}
    for s in samples:
        if s.video_id not in faces:
            faces[s.video_id] = np.asarray(s.face, dtype=np.float64)
    return faces


class _NegativeSampler:
    """Draws k-1 impostor faces per anchor from other candidates in the
    same split.  Training draws are refreshed every epoch; validation uses
    a small set of fixed draws so the validation loss is a comparable,
    low-variance stopping signal across epochs."""

    VAL_DRAWS = 4

    def __init__(self, train, val, k: int, seed: int):
        self.k = k
        self.split_data = {}
        for split, samples in (("train", train), ("val", val)):
            faces = _candidate_faces(samples)
            vids = sorted(faces)
            if len(vids) < k:
                raise ContractError(
                    f"negative sampling needs at least k={k} candidates in the "
                    f"{split} split, found {len(vids)}")
            vid_index = {v: i for i, v in enumerate(vids)}
            self.split_data[split] = {
                "faces": np.stack([faces[v] for v in vids]),
                "owner": np.array([vid_index[s.video_id] for s in samples]),
            }
        self.assignment = {"train": self._draw("train", seed)}
        self.val_assignments = [self._draw("val", seed + 1 + i)
                                for i in range(self.VAL_DRAWS)]
        self.assignment["val"] = self.val_assignments[0]

    def resample_train(self, seed: int) -> None:
        self.assignment["train"] = self._draw("train", seed)

    def use_val_draw(self, index: int) -> None:
        self.assignment["val"] = self.val_assignments[index]

    def _draw(self, split: str, seed: int):
        rng = np.random.default_rng(seed)
        data = self.split_data[split]
        n = data["owner"].size
        n_cand = data["faces"].shape[0]
        choice = np.empty((n, self.k), dtype=int)
        pos = rng.integers(0, self.k, size=n)
        for i, own in enumerate(data["owner"]):
            others = rng.permutation(n_cand - 1)[: self.k - 1]
            others = others + (others >= own)  # skip the anchor's own slot
            row = np.empty(self.k, dtype=int)
            mask = np.ones(self.k, dtype=bool)
            mask[pos[i]] = False
            row[pos[i]] = own
            row[mask] = others
            choice[i] = row
        return choice, pos

    def batch(self, split: str, idx: np.ndarray):
        choice, pos = self.assignment[split]
        faces = self.split_data[split]["faces"][choice[idx]]
        return faces, pos[idx]


# ------------------------------------------------------------ epoch helpers

def _batches(n: int, size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, size):
        yield order[lo:lo + size]


def _labels(samples, idx) -> np.ndarray:
    return np.array([samples[i].y for i in idx], dtype=np.float64)


def _val_pass(model, val) -> tuple[np.ndarray, float]:
    """Inference-mode H over the val split and its task loss, from one predict."""
    h_val, y_hat = predict(model, val)
    y = np.array([s.y for s in val], dtype=np.float64)
    return h_val, float(bce_loss(ad.constant(y_hat), y).value)


def _grads(params: dict[str, Node]) -> dict[str, np.ndarray]:
    return {n: p.grad for n, p in params.items()}


def _step_groups(opt_groups, clip: float) -> None:
    """Clip each parameter group's gradients by global norm, then step."""
    for opt, params in opt_groups:
        opt.step(ly.clip_gradients(_grads(params), clip))


def _train_epoch(model, cfg, samples, rng, opt_main, main_params,
                 adv_task=None, opt_adv=None) -> tuple[float, float | None]:
    """One epoch over the task loss, optionally joint with the adversary."""
    mods = model.active_modalities
    sum_t, sum_a, n_seen = 0.0, 0.0, 0
    joint = adv_task is not None
    trained = dict(main_params)
    if joint:
        trained.update(model.theta_a())
    for idx in _batches(len(samples), cfg.batch_size, rng):
        part = [samples[i] for i in idx]
        res = model.forward_base(batch_sequences(part, mods), training=True,
                                 rng=rng, dropout_rate=cfg.dropout)
        loss_t = bce_loss(res.y_hat, _labels(samples, idx))
        total = loss_t
        if joint:
            loss_a = adv_task.loss(model, ad.grl(res.H, cfg.lam), idx, "train")
            total = ad.add(total, loss_a)
            sum_a += float(loss_a.value) * idx.size
        total = ad.add(total, ly.l2_penalty(trained, cfg.l2))
        ad.zero_grad(model.params.values())
        ad.backward(total)
        groups = [(opt_main, main_params)]
        if joint:
            groups.append((opt_adv, model.theta_a()))
        _step_groups(groups, cfg.clip)
        sum_t += float(loss_t.value) * idx.size
        n_seen += idx.size
    return sum_t / n_seen, (sum_a / n_seen if joint else None)


def _adv_epoch(model, cfg, adv_task, h_cache, opt, rng) -> float:
    """One adversary-only epoch on cached (frozen-trunk) representations."""
    adv_params = model.theta_a()
    total, n_seen = 0.0, 0
    for idx in _batches(h_cache.shape[0], cfg.batch_size, rng):
        loss = adv_task.loss(model, ad.constant(h_cache[idx]), idx, "train")
        full = ad.add(loss, ly.l2_penalty(adv_params, cfg.l2))
        ad.zero_grad(adv_params.values())
        ad.backward(full)
        _step_groups([(opt, adv_params)], cfg.clip)
        total += float(loss.value) * idx.size
        n_seen += idx.size
    return total / n_seen


def _notify(observer, event: str, **payload) -> None:
    if observer is not None:
        observer(event, payload)


def _until_stale(model, names, epoch, max_epochs: int, patience: int,
                 best: float = np.inf) -> float:
    """Call epoch() until `patience` calls in a row fail to beat `best`.

    Restores the parameters `names` (all when None) to their values at the
    best epoch, or at entry when none beat `best`, and returns that value.
    """
    bad, snap = 0, model.snapshot(names)
    for _ in range(max_epochs):
        value = epoch()
        if value < best:
            best, bad, snap = value, 0, model.snapshot(names)
        else:
            bad += 1
            if bad >= patience:
                break
    model.restore(snap)
    return best


# ------------------------------------------------------------ the strategy

def train_alternating(cfg: TrainConfig, model: HireabilityModel, dataset,
                      observer=None) -> tuple[HireabilityModel, TrainLog]:
    """Run the full alternating strategy and return the best-validation model.

    `dataset` is a list of samples carrying split tags; only the train and
    val splits are consumed.  The indirect variants (and the unprotected
    baseline) are trained on blinded records that have no protected field
    at all.
    """
    cfg.validate()
    train = [s for s in dataset if s.split == "train"]
    val = [s for s in dataset if s.split == "val"]
    if not train or not val:
        raise ContractError("training requires non-empty train and val splits")
    if {s.video_id for s in train} & {s.video_id for s in val}:
        raise ContractError("train and val splits share video ids")
    if cfg.variant not in SUPERVISED_VARIANTS:
        train = [blind(s) for s in train]
        val = [blind(s) for s in val]

    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()

    # ---- phase 1: pretrain trunk + hireability head on the task loss
    main_params = {**model.theta_h(), **model.theta_d()}
    opt_main = Adam(main_params, cfg.lr_joint)

    def pretrain_epoch() -> float:
        t0 = time.perf_counter()
        l_t_train, _ = _train_epoch(model, cfg, train, rng, opt_main, main_params)
        _, l_t_val = _val_pass(model, val)
        log.add(phase="pretrain-main", l_t_train=l_t_train, l_t_val=l_t_val,
                l_a_train=None, l_a_val=None, objective_val=l_t_val,
                seconds=time.perf_counter() - t0)
        return l_t_val

    _notify(observer, "phase_start", phase="pretrain-main")
    _until_stale(model, main_params, pretrain_epoch, cfg.max_epochs_pretrain,
                 cfg.patience_pretrain)
    _notify(observer, "phase_end", phase="pretrain-main")

    if cfg.variant == "unprotected":
        model.trained = True
        _, log.final_l_t_val = _val_pass(model, val)
        log.best_objective = log.final_l_t_val
        return model, log

    # ---- phase 2: adversary alone against the frozen trunk
    task = _AdversaryTask(cfg, train, val, seed=cfg.seed)
    log.compressor_fingerprint = task.fingerprint
    h_train, _ = predict(model, train)
    h_val, l_t_val = _val_pass(model, val)
    l_a_val = _adv_phase(model, cfg, task, h_train, h_val, rng, log, "pretrain-adv",
                         observer)

    # ---- phase 3: alternate joint epochs with adversary re-fits
    def outer_epoch() -> float:
        t0 = time.perf_counter()
        opt_adv_joint = Adam(model.theta_a(), cfg.lr_joint)
        _notify(observer, "phase_start", phase="joint")
        task.resample(int(rng.integers(2 ** 31)))
        l_t_train, l_a_train = _train_epoch(model, cfg, train, rng, opt_main,
                                            main_params, task, opt_adv_joint)
        h_train, _ = predict(model, train)
        h_val, l_t_val = _val_pass(model, val)
        l_a_val = task.evaluate(model, h_val, "val")
        log.add(phase="joint", l_t_train=l_t_train, l_t_val=l_t_val,
                l_a_train=l_a_train, l_a_val=l_a_val,
                objective_val=l_t_val - cfg.lam * l_a_val,
                seconds=time.perf_counter() - t0)
        _notify(observer, "phase_end", phase="joint")

        reinit_seed = int(rng.integers(2 ** 31))
        model.reinit_adversary(reinit_seed)
        log.adv_reinit_seeds.append(reinit_seed)
        _notify(observer, "adv_reinit", seed=reinit_seed)

        l_a_val = _adv_phase(model, cfg, task, h_train, h_val, rng, log, "adv-refit",
                             observer, l_t_val=l_t_val)
        return l_t_val - cfg.lam * l_a_val

    log.best_objective = _until_stale(model, None, outer_epoch, cfg.max_outer,
                                      cfg.patience_outer, best=l_t_val - cfg.lam * l_a_val)
    model.trained = True
    h_val, log.final_l_t_val = _val_pass(model, val)
    log.final_l_a_val = task.evaluate(model, h_val, "val")
    return model, log


def _adv_phase(model, cfg, task, h_train, h_val, rng, log, tag, observer,
               l_t_val=None) -> float:
    """Train the adversary to validation convergence on cached H."""
    adv_params = model.theta_a()
    opt = Adam(adv_params, cfg.lr_adv)

    def epoch() -> float:
        t0 = time.perf_counter()
        task.resample(int(rng.integers(2 ** 31)))
        l_a_train = _adv_epoch(model, cfg, task, h_train, opt, rng)
        l_a_val = task.evaluate(model, h_val, "val")
        obj = None if l_t_val is None else l_t_val - cfg.lam * l_a_val
        log.add(phase=tag, l_t_train=None, l_t_val=l_t_val, l_a_train=l_a_train,
                l_a_val=l_a_val, objective_val=obj, seconds=time.perf_counter() - t0)
        return l_a_val

    _notify(observer, "phase_start", phase=tag)
    best = _until_stale(model, adv_params, epoch, cfg.max_epochs_adv, cfg.patience_adv)
    _notify(observer, "phase_end", phase=tag)
    return best


# --------------------------------------------------------- lambda selection

def select_lambda(results: dict[float, tuple[float, float]]) -> float:
    """Pick the grid point minimizing validation L_T - L_A; ties go to the
    smaller lambda."""
    if not results:
        raise ConfigError("select_lambda: empty results")
    best_lam, best_val = None, np.inf
    for lam in sorted(results):
        l_t, l_a = results[lam]
        value = l_t - l_a
        if value < best_val:
            best_lam, best_val = lam, value
    return best_lam
