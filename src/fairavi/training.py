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

import copy
import functools
import time
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Node
from .data import apply_compressor, blind, fit_compressor, load_face_targets
from .errors import (AtLeastTwoInt, ConfigError, ContractError, FaceDim, Fraction, Modality,
                     NonNegative, NonNegativeInt, Positive, PositiveInt, Variant, check_fields)
from .fileio import write_csv
from .model import CHUNK, HireabilityModel, batch_sequences, predict, protected_labels

LAMBDA_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
SUPERVISED_VARIANTS = ("supervised-gender", "supervised-ethnicity")


@dataclass
class TrainConfig:
    variant: Variant = "unprotected"
    modality: Modality = "multimodal"
    lam: NonNegative = 1.0
    k: AtLeastTwoInt = 5
    q: FaceDim = 2
    batch_size: PositiveInt = 32
    lr_joint: Positive = 1e-4
    lr_adv: Positive = 3e-3
    l2: NonNegative = 1e-4
    dropout: Fraction = 0.2
    clip: Positive = 1.0
    patience_pretrain: PositiveInt = 5
    patience_adv: PositiveInt = 3
    patience_outer: PositiveInt = 3
    # the adversary fit starts from the best pretrain epoch's val pass, and with
    # no adversary epoch the starting objective is -inf and no joint epoch is kept
    max_epochs_pretrain: PositiveInt = 200
    max_epochs_adv: PositiveInt = 80
    max_outer: NonNegativeInt = 40
    face_targets: str | None = None   # external q-dim embeddings for static-faces
    seed: NonNegativeInt = 0

    def validate(self) -> "TrainConfig":
        check_fields(TrainConfig, vars(self))
        if self.face_targets is not None and self.variant != "static-faces":
            raise ConfigError(f"face_targets is read only by static-faces, not {self.variant}")
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
    """Mean -log p at each row's true class or true candidate, p clamped to 1e-12."""
    p = ad.constant(p)
    pos = np.asarray(positive_index)
    n, k = p.value.shape
    if pos.size == 0:
        raise ContractError("ns_loss: empty batch")
    if pos.min() < 0 or pos.max() >= k:
        raise ContractError(f"ns_loss: positive index out of range [0, {k})")
    p_pos = ad.slice_(p, (np.arange(n), pos))
    return ad.neg(ad.mean(ad.log(ad.clip(p_pos, 1e-12, 1.0))))


# -------------------------------------------------------------------- Adam

class Adam:
    """Bias-corrected Adam over a named parameter dict.

    The first and second moments of all parameters live in one flat buffer
    each, in parameter order; m[name] and v[name] are views into them.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Node], lr: float):
        self.params = params
        self.lr = lr
        offsets = np.cumsum([0] + [p.value.size for p in params.values()])
        self._slices = {n: slice(lo, hi) for n, lo, hi in zip(params, offsets[:-1], offsets[1:])}
        self._m, self._v = np.zeros(offsets[-1]), np.zeros(offsets[-1])
        self.t = 0

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {n: flat[sl].reshape(self.params[n].value.shape) for n, sl in self._slices.items()}

    m = property(lambda self: self._views(self._m))
    v = property(lambda self: self._views(self._v))

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update; mismatched names or shapes and non-finite gradients
        raise before any state changes."""
        if grads.keys() != self.params.keys():
            missing = [n for n in self.params if n not in grads]
            extra = [n for n in grads if n not in self.params]
            raise ContractError(f"Adam.step: gradients missing for {missing}, "
                                f"unexpected gradients for {extra}")
        for name, p in self.params.items():
            if np.shape(grads[name]) != p.value.shape:
                raise ContractError(f"Adam.step: gradient for {name} has shape "
                                    f"{np.shape(grads[name])}, parameter {p.value.shape}")
        g = np.concatenate([np.ravel(grads[n]) for n in self.params])
        if not np.all(np.isfinite(g)):
            name = next(n for n, sl in self._slices.items() if not np.all(np.isfinite(g[sl])))
            raise ContractError(f"non-finite gradient for parameter {name}")
        self.t += 1
        c1 = 1.0 - self.BETA1 ** self.t
        c2 = 1.0 - self.BETA2 ** self.t
        self._m[...] = self.BETA1 * self._m + (1.0 - self.BETA1) * g
        self._v[...] = self.BETA2 * self._v + (1.0 - self.BETA2) * g * g
        step = self.lr * ((self._m / c1) / (np.sqrt(self._v / c2) + self.EPS))
        for name, p in self.params.items():
            p.value -= step[self._slices[name]].reshape(p.value.shape)


# ---------------------------------------------------------------- train log

@dataclass
class LogRow:
    epoch: int
    phase: str
    l_t_train: float | None = None
    l_t_val: float | None = None
    l_a_train: float | None = None
    l_a_val: float | None = None
    objective_val: float | None = None
    seconds: float = 0.0


CSV_HEADER = ",".join(f.name for f in fields(LogRow))


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)
    final_l_t_val: float | None = None    # validation losses of the state kept so far
    final_l_a_val: float | None = None

    def add(self, phase: str, t0: float, **losses) -> None:
        """Record an epoch of `phase` that began at `time.perf_counter()` reading
        `t0`, with the LogRow loss fields given in `losses` (the rest None)."""
        self.rows.append(LogRow(len(self.rows), phase, **losses, seconds=time.perf_counter() - t0))

    def phases(self) -> list[str]:
        return [r.phase for r in self.rows]

    def to_csv(self, path) -> None:
        write_csv(path, [CSV_HEADER.split(","), *map(astuple, self.rows)])


# ------------------------------------------------------- adversarial targets

class _AdversaryTask:
    """Targets and loss for the adversarial branch, one protocol for every
    variant: `train` is the train split's target, `val_draws` a list of val
    targets, and `loss` scores a batch of rows `idx` against a target.

    Supervised and static-faces targets are arrays, with one val draw.  A
    negative-sampling target is a `draw`: the split's face table, and per
    anchor k candidate rows of it, k-1 impostors from other candidates and
    its own at a random slot.  `resample` replaces the train draw each
    epoch; VAL_DRAWS fixed val draws keep the validation loss a comparable,
    low-variance stopping signal across epochs.

    Built from blinded records for the indirect variants; only the
    supervised variants ever look at the protected label.
    """

    VAL_DRAWS = 4

    def __init__(self, cfg: TrainConfig, train, val, seed: int):
        self.variant = cfg.variant
        self.k = cfg.k
        splits = {"train": train, "val": val}
        if self.variant in SUPERVISED_VARIANTS:
            targets = protected_labels(splits, self.variant.removeprefix("supervised-"))
            self.train, self.val_draws = targets["train"], [targets["val"]]
        elif self.variant == "static-faces":
            if cfg.face_targets:
                lookup = load_face_targets(cfg.face_targets, cfg.q)
                missing = {s.video_id for s in [*train, *val]} - set(lookup)
                if missing:
                    raise ContractError(
                        f"{cfg.face_targets}: face targets file lacks {len(missing)} "
                        f"video id(s), e.g. {sorted(missing)[:3]}")
                code = lambda part: np.stack([lookup[s.video_id] for s in part])
            else:
                proj = fit_compressor(np.stack(list(_candidate_faces(train).values())), cfg.q,
                                      seed=seed)
                code = lambda part: apply_compressor(proj, np.stack([s.face for s in part]))
            self.train, self.val_draws = code(train), [code(val)]
        elif self.variant == "negative-sampling":
            self.tables = {}   # split -> (one face per candidate, each sample's row in it)
            for split, samples in splits.items():
                faces = _candidate_faces(samples)
                vids = sorted(faces)
                if len(vids) < self.k:
                    raise ContractError(
                        f"negative sampling needs at least k={self.k} candidates in the "
                        f"{split} split, found {len(vids)}")
                row = {v: i for i, v in enumerate(vids)}
                self.tables[split] = (np.stack([faces[v] for v in vids]),
                                      np.array([row[s.video_id] for s in samples]))
            self.train = self.draw("train", seed)
            self.val_draws = [self.draw("val", seed + 1 + i) for i in range(self.VAL_DRAWS)]

    def draw(self, split: str, seed: int):
        """(faces, choice, pos): sample i's candidates are faces[choice[i]],
        its own face at slot pos[i]."""
        rng = np.random.default_rng(seed)
        faces, owner = self.tables[split]
        pos = rng.integers(0, self.k, size=owner.size)
        others = np.fromiter((rng.permutation(faces.shape[0] - 1)[: self.k - 1] for _ in owner),
                             (int, self.k - 1), owner.size)     # row by row, no list of views
        others += others >= owner[:, None]  # skip the anchor's own slot
        impostor = np.arange(self.k) != pos[:, None]   # row i's own face sits at pos[i]
        choice = np.empty(impostor.shape, dtype=int)
        choice[impostor], choice[~impostor] = others.ravel(), owner
        return faces, choice, pos

    def resample(self, seed: int) -> None:
        if self.variant == "negative-sampling":
            self.train = self.draw("train", seed)

    def loss(self, model: HireabilityModel, h: Node, idx: np.ndarray, target) -> Node:
        if self.variant == "negative-sampling":
            faces, choice, pos = target
            _, p = model.head_negative_sampling(h, faces[choice[idx]])
            return ns_loss(p, pos[idx])
        if self.variant == "static-faces":
            return mse_face_loss(model.head_static_faces(h), target[idx])
        loss = bce_loss if self.variant == "supervised-gender" else ns_loss
        return loss(model.head_supervised(h), target[idx])

    def evaluate(self, model: HireabilityModel, h_val: np.ndarray) -> float:
        """Mean validation loss over cached representations, with no tape,
        averaged over the val draws."""
        n = h_val.shape[0]
        values = []
        with ad.no_tape():
            for target in self.val_draws:
                total = 0.0
                for lo in range(0, n, CHUNK):
                    idx = np.arange(lo, min(lo + CHUNK, n))
                    total += float(self.loss(model, ad.constant(h_val[idx]), idx,
                                             target).value) * idx.size
                values.append(total / n)
        return float(np.mean(values))


def _candidate_faces(samples) -> dict:
    """One face vector per video id (faces are constant within a candidate)."""
    faces = {}
    for s in samples:
        if s.video_id not in faces:
            faces[s.video_id] = np.asarray(s.face, dtype=np.float64)
    return faces


# ------------------------------------------------------------ epoch helpers

def _batches(n: int, size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, size):
        yield order[lo:lo + size]


def _val_pass(model, val) -> tuple[np.ndarray, float]:
    """Inference-mode H over the val split and its task loss, from one predict."""
    h_val, y_hat = predict(model, val)
    y = np.array([s.y for s in val], dtype=np.float64)
    return h_val, float(bce_loss(ad.constant(y_hat), y).value)


def _step(opts, clip: float) -> None:
    """Clip each optimizer's gradients by their global norm, then step it."""
    for opt in opts:
        opt.step(ly.clip_gradients({n: p.grad for n, p in opt.params.items()}, clip))


def _descend(cfg, n, rng, opts, batch_losses) -> list[float]:
    """One epoch of minibatch descent over `n` samples, shuffled by `rng`.
    `batch_losses(idx)` gives a batch's loss terms; their sum plus the L2
    penalty of the parameters `opts` hold is minimized.  Returns each term's
    mean over the epoch."""
    params = {name: p for opt in opts for name, p in opt.params.items()}
    sums, n_seen = [], 0
    for idx in _batches(n, cfg.batch_size, rng):
        terms = batch_losses(idx)
        total = ad.add(functools.reduce(ad.add, terms), ly.l2_penalty(params, cfg.l2))
        ad.zero_grad(params.values())
        ad.backward(total)
        _step(opts, cfg.clip)
        sums = [s + float(t.value) * idx.size for s, t in zip(sums or [0.0] * len(terms), terms)]
        n_seen += idx.size
    return [s / n_seen for s in sums]


def _train_epoch(model, cfg, samples, rng, opt_main,
                 adv_task=None, opt_adv=None) -> tuple[float, float | None]:
    """One epoch over the task loss, optionally joint with the adversary."""
    mods = model.active_modalities
    joint = adv_task is not None

    def batch_losses(idx):
        part = [samples[i] for i in idx]
        res = model.forward_base(batch_sequences(part, mods), training=True,
                                 rng=rng, dropout_rate=cfg.dropout)
        loss_t = bce_loss(res.y_hat, [s.y for s in part])
        if not joint:
            return [loss_t]
        return [loss_t, adv_task.loss(model, ad.grl(res.H, cfg.lam), idx, adv_task.train)]

    means = _descend(cfg, len(samples), rng, [opt_main, opt_adv][:1 + joint], batch_losses)
    return means[0], (means[1] if joint else None)


def _notify(observer, event: str, **payload) -> None:
    if observer is not None:
        observer(event, payload)


def _until_stale(model, names, epoch, max_epochs: int, patience: int,
                 best: float = np.inf, info=None):
    """Call epoch() until `patience` calls in a row fail to beat `best`.

    epoch() returns (value, info).  Restores the parameters `names` (all
    when None) to their values at the best epoch, or at entry when none beat
    `best`, and returns that epoch's (value, info), or (best, info) as given.
    """
    bad, snap = 0, model.snapshot(names)
    for _ in range(max_epochs):
        value, extra = epoch()
        if value < best:
            best, info, bad, snap = value, extra, 0, model.snapshot(names)
        else:
            bad += 1
            if bad >= patience:
                break
    model.restore(snap)
    return best, info


# ------------------------------------------------------------ the strategy

@dataclass
class Pretrained:
    """The state after pretrain-main and pretrain-adv, which never read lambda.
    `task` is None for the unprotected variant, whose training ends here."""
    cfg: TrainConfig
    model: HireabilityModel
    opt_main: Adam
    rng: np.random.Generator
    task: _AdversaryTask | None
    train: list
    val: list
    log: TrainLog

    def fork(self) -> "Pretrained":
        """A copy to run on; the blinded samples are only read, so stay shared."""
        return copy.deepcopy(self, {id(self.train): self.train, id(self.val): self.val})


def train_alternating(cfg: TrainConfig, model: HireabilityModel, dataset,
                      observer=None) -> tuple[HireabilityModel, TrainLog]:
    """Run the full alternating strategy and return the best-validation model."""
    return alternate(pretrain(cfg, model, dataset, observer), cfg.lam, observer)


def pretrain(cfg: TrainConfig, model: HireabilityModel, dataset,
             observer=None) -> Pretrained:
    """Pretrain the trunk and hireability head, then fit the adversary alone
    against the frozen trunk.

    `dataset` is a list of samples carrying split tags; only the train and
    val splits are consumed.  The indirect variants (and the unprotected
    baseline) are trained on blinded records that have no protected field
    at all.
    """
    cfg.validate()
    kind = lambda o: f"{o.modality}/{o.variant} (q={o.q}, k={o.k})"
    if kind(cfg) != kind(model):
        raise ContractError(f"the config trains a {kind(cfg)} model, given a {kind(model)} one")
    train = [s for s in dataset if s.split == "train"]
    val = [s for s in dataset if s.split == "val"]
    if not train or not val:
        raise ContractError("training requires non-empty train and val splits")
    if {s.video_id for s in train} & {s.video_id for s in val}:
        raise ContractError("train and val splits share video ids")
    if cfg.variant not in SUPERVISED_VARIANTS:
        train = [blind(s) for s in train]
        val = [blind(s) for s in val]

    # targets are checked before any epoch; the task draws only from its own seeds
    task = None if cfg.variant == "unprotected" else _AdversaryTask(cfg, train, val, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    opt_main = Adam(model.theta_main(), cfg.lr_joint)

    def pretrain_epoch():
        t0 = time.perf_counter()
        l_t_train, _ = _train_epoch(model, cfg, train, rng, opt_main)
        h_val, l_t_val = _val_pass(model, val)
        log.add("pretrain-main", t0, l_t_train=l_t_train, l_t_val=l_t_val,
                objective_val=l_t_val)
        return l_t_val, h_val

    _notify(observer, "phase_start", phase="pretrain-main")
    log.final_l_t_val, h_val = _until_stale(model, opt_main.params, pretrain_epoch,
                                            cfg.max_epochs_pretrain, cfg.patience_pretrain)
    _notify(observer, "phase_end", phase="pretrain-main")

    if task is not None:
        h_train, _ = predict(model, train)
        log.final_l_a_val = _adv_phase(model, cfg, task, h_train, h_val, rng, log,
                                       "pretrain-adv", observer)
    return Pretrained(cfg, model, opt_main, rng, task, train, val, log)


def alternate(state: Pretrained, lam: float,
              observer=None) -> tuple[HireabilityModel, TrainLog]:
    """Run the outer loop from `state` under lambda `lam` and return the
    best-validation model.  The run mutates `state`."""
    cfg = replace(state.cfg, lam=lam).validate()
    log = state.log
    if state.task is not None:
        kept = log.final_l_t_val, log.final_l_a_val
        _, (log.final_l_t_val, log.final_l_a_val) = _until_stale(
            state.model, None, lambda: _outer_epoch(state, cfg, observer), cfg.max_outer,
            cfg.patience_outer, best=kept[0] - cfg.lam * kept[1], info=kept)
    state.model.trained = True
    return state.model, log


def _outer_epoch(state: Pretrained, cfg: TrainConfig, observer):
    """One joint epoch, then a fresh adversary fitted to convergence; returns
    the validation objective and (L_T, L_A) of the state it leaves."""
    t0 = time.perf_counter()
    model, task, rng, log = state.model, state.task, state.rng, state.log
    opt_adv_joint = Adam(model.theta_a(), cfg.lr_joint)
    _notify(observer, "phase_start", phase="joint")
    task.resample(int(rng.integers(2 ** 31)))
    l_t_train, l_a_train = _train_epoch(model, cfg, state.train, rng, state.opt_main,
                                        task, opt_adv_joint)
    h_train, _ = predict(model, state.train)
    h_val, l_t_val = _val_pass(model, state.val)
    l_a_val = task.evaluate(model, h_val)
    log.add("joint", t0, l_t_train=l_t_train, l_t_val=l_t_val, l_a_train=l_a_train,
            l_a_val=l_a_val, objective_val=l_t_val - cfg.lam * l_a_val)
    _notify(observer, "phase_end", phase="joint")

    reinit_seed = int(rng.integers(2 ** 31))
    model.reinit_adversary(reinit_seed)
    _notify(observer, "adv_reinit", seed=reinit_seed)

    l_a_val = _adv_phase(model, cfg, task, h_train, h_val, rng, log, "adv-refit",
                         observer, l_t_val=l_t_val)
    return l_t_val - cfg.lam * l_a_val, (l_t_val, l_a_val)


def _adv_phase(model, cfg, task, h_train, h_val, rng, log, tag, observer,
               l_t_val=None) -> float:
    """Train the adversary to validation convergence on cached H; returns the
    validation loss of the adversary it keeps."""
    adv_params = model.theta_a()
    opt = Adam(adv_params, cfg.lr_adv)

    def epoch():
        t0 = time.perf_counter()
        task.resample(int(rng.integers(2 ** 31)))
        [l_a_train] = _descend(cfg, h_train.shape[0], rng, [opt], lambda idx: [
            task.loss(model, ad.constant(h_train[idx]), idx, task.train)])
        l_a_val = task.evaluate(model, h_val)
        log.add(tag, t0, l_t_val=l_t_val, l_a_train=l_a_train, l_a_val=l_a_val,
                objective_val=None if l_t_val is None else l_t_val - cfg.lam * l_a_val)
        return l_a_val, None

    _notify(observer, "phase_start", phase=tag)
    best, _ = _until_stale(model, adv_params, epoch, cfg.max_epochs_adv, cfg.patience_adv)
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
