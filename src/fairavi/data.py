"""Synthetic interview data with a plantable protected-attribute leak,
group-disjoint splitting, face compression, and JSONL persistence.

Each synthetic candidate (one video id) gets a latent skill, a protected
class, per-modality identity offsets and a constant face vector; clips
of the same video share these latents.  The bias knob beta controls how
strongly the protected class leaks into the sequences, the label and
nothing else: at beta = 0 the protected class is statistically invisible.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError

SEQ_FIELDS = ("seq_language", "seq_audio", "seq_video")
JSONL_FIELDS = ("id", "video_id", *SEQ_FIELDS, "face", "y", "z", "split")

FACE_DIM = 512


@dataclass
class InterviewSample:
    """One candidate answer: three modality sequences, a face vector,
    the hireability label and (optionally) the protected label."""
    id: str
    video_id: str
    seq_language: np.ndarray
    seq_audio: np.ndarray
    seq_video: np.ndarray
    face: np.ndarray
    y: int
    z: int | None = None
    split: str = ""


@dataclass
class BlindSample:
    """An InterviewSample with the protected field removed at the type
    level; the indirect training path consumes only these."""
    id: str
    video_id: str
    seq_language: np.ndarray
    seq_audio: np.ndarray
    seq_video: np.ndarray
    face: np.ndarray
    y: int
    split: str = ""

    @property
    def z(self):
        raise ContractError("protected variable not available to this variant")


def blind(sample) -> BlindSample:
    """Strip the protected label; never reads it."""
    if isinstance(sample, BlindSample):
        return sample
    return BlindSample(id=sample.id, video_id=sample.video_id,
                       seq_language=sample.seq_language, seq_audio=sample.seq_audio,
                       seq_video=sample.seq_video, face=sample.face,
                       y=sample.y, split=sample.split)


# ---------------------------------------------------------------- generator

@dataclass
class GeneratorConfig:
    n: int = 2000
    max_clips: int = 5                   # clips per video drawn uniformly in 1..max_clips
    seq_len: dict = field(default_factory=lambda: {"language": 12, "audio": 25, "video": 20})
    feat_dim: dict = field(default_factory=lambda: {"language": 16, "audio": 20, "video": 12})
    n_classes: int = 2
    class_priors: tuple | None = None    # default: uniform
    bias: float = 0.8                    # beta: protected leak strength
    skill_scale: float = 2.5             # label-logit weight on the skill latent
    leak_scale: float = 1.0              # label-logit weight on the protected leak
    protected_scale: float = 1.0         # per-frame protected offset magnitude
    identity_scale: float = 0.35
    noise_scale: float = 0.3
    face_separation: float = 12.0        # class structure must dominate face noise,
    face_noise: float = 0.5              # or the face-matching adversary learns nothing
    seed: int = 7

    def validate(self) -> "GeneratorConfig":
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if not 0.0 <= self.bias <= 1.0:
            raise ConfigError(f"bias must be in [0, 1], got {self.bias}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        if not 1 <= self.max_clips:
            raise ConfigError(f"max_clips must be at least 1, got {self.max_clips}")
        priors = self.priors()
        if len(priors) != self.n_classes:
            raise ConfigError(f"class priors must have {self.n_classes} entries")
        if abs(sum(priors) - 1.0) > 1e-9 or min(priors) < 0:
            raise ConfigError(f"class priors must be nonnegative and sum to 1, got {priors}")
        return self

    def priors(self) -> tuple:
        if self.class_priors is None:
            return tuple(1.0 / self.n_classes for _ in range(self.n_classes))
        return tuple(float(p) for p in self.class_priors)

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown generator config fields: {sorted(unknown)}")
        merged = cls(**doc)
        if isinstance(merged.class_priors, list):
            merged.class_priors = tuple(merged.class_priors)
        return merged.validate()


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def generate_synthetic(cfg: GeneratorConfig) -> list[InterviewSample]:
    """Draw a dataset of clip-level samples grouped into candidate videos."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    modalities = ("language", "audio", "video")
    priors = np.array(cfg.priors())
    # run-level directions, shared by every candidate
    skill_dir = {m: _unit(rng.standard_normal(cfg.feat_dim[m])) for m in modalities}
    prot_dir = {m: np.stack([_unit(rng.standard_normal(cfg.feat_dim[m]))
                             for _ in range(cfg.n_classes)]) for m in modalities}
    face_dir = np.stack([_unit(rng.standard_normal(FACE_DIM))
                         for _ in range(cfg.n_classes)])
    # class leak values, evenly spaced and centered
    leak = np.linspace(-1.0, 1.0, cfg.n_classes)

    samples: list[InterviewSample] = []
    vid = 0
    while len(samples) < cfg.n:
        n_clips = int(rng.integers(1, cfg.max_clips + 1))
        n_clips = min(n_clips, cfg.n - len(samples))
        video_id = f"vid{vid:05d}"
        vid += 1
        z = int(rng.choice(cfg.n_classes, p=priors))
        skill = float(rng.standard_normal())
        id_offset = {m: cfg.identity_scale * rng.standard_normal(cfg.feat_dim[m])
                     for m in modalities}
        face = (cfg.face_separation * face_dir[z]
                + cfg.identity_scale * rng.standard_normal(FACE_DIM)
                + cfg.face_noise * rng.standard_normal(FACE_DIM))
        logit = cfg.skill_scale * skill + cfg.bias * cfg.leak_scale * leak[z]
        p_hire = float(_sigmoid(np.array(logit)))
        for c in range(n_clips):
            seqs = {}
            for m in modalities:
                base = (skill_dir[m] * skill
                        + cfg.bias * cfg.protected_scale * prot_dir[m][z]
                        + id_offset[m])
                noise = cfg.noise_scale * rng.standard_normal(
                    (cfg.seq_len[m], cfg.feat_dim[m]))
                seqs[m] = base[None, :] + noise
            y = int(rng.random() < p_hire)
            samples.append(InterviewSample(
                id=f"{video_id}_c{c}", video_id=video_id,
                seq_language=seqs["language"], seq_audio=seqs["audio"],
                seq_video=seqs["video"], face=face, y=y, z=z))
    return samples


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# ----------------------------------------------------------------- splitting

def split_group_disjoint(samples, ratios=(0.7, 0.15, 0.15), seed: int = 0):
    """Assign split tags by video id so no group spans two splits.

    Groups are shuffled and filled greedily to the requested clip-count
    ratios; the boundary lands between whole groups.  Mutates the split
    field and returns (train, val, test) lists.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    groups: dict[str, list] = {}
    for s in samples:
        groups.setdefault(s.video_id, []).append(s)
    if len(groups) < 3:
        warnings.warn(f"only {len(groups)} video group(s); splits will be degenerate")
    rng = np.random.default_rng(seed)
    order = list(groups)
    rng.shuffle(order)
    n = len(samples)
    cut_train, cut_val = ratios[0] * n, (ratios[0] + ratios[1]) * n
    assigned = 0
    for vid in order:
        tag = "train" if assigned < cut_train else ("val" if assigned < cut_val else "test")
        for s in groups[vid]:
            s.split = tag
        assigned += len(groups[vid])
    out = {t: [s for s in samples if s.split == t] for t in ("train", "val", "test")}
    return out["train"], out["val"], out["test"]


# ------------------------------------------------------------- compression

@dataclass
class FaceProjection:
    """Top-q principal directions of the training faces."""
    mean: np.ndarray         # (d,)
    components: np.ndarray   # (q, d), orthonormal rows
    fingerprint: str         # sha256 of the fit data


def fingerprint_faces(faces: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(faces, dtype=np.float64).tobytes()).hexdigest()


def fit_compressor(faces: np.ndarray, q: int, seed: int = 0,
                   max_iter: int = 1000, tol: float = 1e-10) -> FaceProjection:
    """Center on the training mean and extract q principal directions by
    power iteration with deflation."""
    faces = np.asarray(faces, dtype=np.float64)
    if faces.ndim != 2 or faces.shape[0] < q + 1:
        raise ContractError(f"fit_compressor: need at least q+1={q + 1} face rows")
    mean = faces.mean(axis=0)
    centered = faces - mean
    cov = centered.T @ centered / (faces.shape[0] - 1)
    scale = float(np.trace(cov)) / faces.shape[1]
    rng = np.random.default_rng(seed)
    components = []
    work = cov.copy()
    for comp in range(q):
        v = _unit(rng.standard_normal(faces.shape[1]))
        for _ in range(max_iter):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm <= scale * 1e-12:
                raise ContractError(
                    f"fit_compressor: data rank below q (failed at component {comp})")
            w /= norm
            if np.linalg.norm(w - v) < tol:
                v = w
                break
            v = w
        lam = float(v @ work @ v)
        if lam <= scale * 1e-10:
            raise ContractError(
                f"fit_compressor: data rank below q (component {comp} has "
                f"negligible variance)")
        components.append(v)
        work = work - lam * np.outer(v, v)
    return FaceProjection(mean=mean, components=np.stack(components),
                          fingerprint=fingerprint_faces(faces))


def apply_compressor(proj: FaceProjection, faces: np.ndarray) -> np.ndarray:
    """Project faces onto the fitted directions (training statistics only)."""
    faces = np.asarray(faces, dtype=np.float64)
    single = faces.ndim == 1
    out = (np.atleast_2d(faces) - proj.mean) @ proj.components.T
    return out[0] if single else out


def reconstruct(proj: FaceProjection, compressed: np.ndarray) -> np.ndarray:
    return np.atleast_2d(compressed) @ proj.components + proj.mean


def load_face_targets(path, q: int) -> dict[str, np.ndarray]:
    """Import externally computed q-dim face embeddings (e.g. genuine UMAP
    output) as a JSON object mapping video_id -> q floats."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not doc:
        raise ContractError(f"{path}: expected a non-empty video_id -> vector mapping")
    out = {}
    for vid, vec in doc.items():
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != (q,):
            raise ContractError(
                f"{path}: embedding for {vid!r} has shape {arr.shape}, expected ({q},)")
        out[vid] = arr
    return out


# ------------------------------------------------------------- persistence

def save_jsonl(samples, path) -> None:
    """One JSON object per line with the full sample schema."""
    with open(path, "w") as fh:
        for s in samples:
            doc = {
                "id": s.id,
                "video_id": s.video_id,
                "seq_language": np.asarray(s.seq_language).tolist(),
                "seq_audio": np.asarray(s.seq_audio).tolist(),
                "seq_video": np.asarray(s.seq_video).tolist(),
                "face": np.asarray(s.face).tolist(),
                "y": int(s.y),
                "z": None if s.z is None else int(s.z),
                "split": s.split,
            }
            fh.write(json.dumps(doc) + "\n")


def _float_array(doc, name: str, where: str) -> np.ndarray:
    """A field as a finite float64 array; ragged or non-numeric input is
    rejected as not being an array."""
    try:
        arr = np.asarray(doc[name], dtype=np.float64)
    except (TypeError, ValueError):
        raise ContractError(f"{where}: {name} is not a numeric array")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{where}: {name} has a non-finite value")
    return arr


def load_jsonl(path) -> list[InterviewSample]:
    """Read samples, checking each row against the first row's sequence shapes."""
    samples, seq_shapes = [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ContractError(f"{where}: malformed JSON ({e.msg})")
            missing = [f for f in JSONL_FIELDS if f not in doc]
            if missing:
                raise ContractError(f"{where}: missing field(s) {missing}")
            face = _float_array(doc, "face", where)
            if face.shape != (FACE_DIM,):
                raise ContractError(
                    f"{where}: face must have length {FACE_DIM}, got {face.shape}")
            seqs = {f: _float_array(doc, f, where) for f in SEQ_FIELDS}
            seq_shapes = seq_shapes or {f: seq.shape for f, seq in seqs.items()}
            for f, seq in seqs.items():
                if seq.ndim != 2:
                    raise ContractError(f"{where}: {f} must be 2-D, got shape {seq.shape}")
                if seq.shape != seq_shapes[f]:
                    raise ContractError(f"{where}: {f} has shape {seq.shape}, but the "
                                        f"first row's is {seq_shapes[f]}")
            y, z = doc["y"], doc["z"]
            if type(y) is not int or y not in (0, 1):
                raise ContractError(f"{where}: y must be 0 or 1, got {y!r}")
            if z is not None and (type(z) is not int or z < 0):
                raise ContractError(
                    f"{where}: z must be null or a non-negative integer, got {z!r}")
            samples.append(InterviewSample(
                id=doc["id"], video_id=doc["video_id"], **seqs,
                face=face, y=y, z=z, split=doc["split"]))
    return samples
