"""Synthetic interview data with a plantable protected-attribute leak,
group-disjoint splitting, face compression, and JSONL persistence.

Each synthetic candidate (one video id) gets a latent skill, a protected
class, per-modality identity offsets and a constant face vector; clips
of the same video share these latents.  The bias knob beta controls how
strongly the protected class leaks into the sequences, the label and
nothing else: at beta = 0 the protected class is statistically invisible.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import orjson

from .autodiff import logistic
from .errors import (MODALITIES, AtLeastTwoInt, ConfigError, ContractError, NonNegativeInt,
                     PositiveInt, PositiveInt64, Probability, Scale, SplitRatios, check_fields)
from .fileio import atomic_write, read_json

SEQ_FIELDS = ("seq_language", "seq_audio", "seq_video")
JSONL_FIELDS = ("id", "video_id", *SEQ_FIELDS, "face", "y", "z", "split")

FACE_DIM = 512
SPLITS = ("train", "val", "test")
MAX_FLOATS = 10 ** 8     # most floats gen may draw and load_jsonl may read


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
    return BlindSample(**{f: getattr(sample, f) for f in BlindSample.__dataclass_fields__})


# ---------------------------------------------------------------- generator

@dataclass
class GeneratorConfig:
    n: PositiveInt = 2000
    max_clips: PositiveInt64 = 5         # clips per video drawn uniformly in 1..max_clips
    seq_len: dict = field(default_factory=lambda: {"language": 12, "audio": 25, "video": 20})
    feat_dim: dict = field(default_factory=lambda: {"language": 16, "audio": 20, "video": 12})
    n_classes: AtLeastTwoInt = 2
    class_priors: tuple | None = None    # default: uniform
    bias: Probability = 0.8              # beta: protected leak strength
    skill_scale: Scale = 2.5             # label-logit weight on the skill latent
    leak_scale: Scale = 1.0              # label-logit weight on the protected leak
    protected_scale: Scale = 1.0         # per-frame protected offset magnitude
    identity_scale: Scale = 0.35
    noise_scale: Scale = 0.3
    face_separation: Scale = 12.0        # class structure must dominate face noise,
    face_noise: Scale = 0.5              # or the face-matching adversary learns nothing
    seed: NonNegativeInt = 7
    split_ratios: SplitRatios = (0.7, 0.15, 0.15)   # train, val, test

    def validate(self) -> "GeneratorConfig":
        check_fields(GeneratorConfig, vars(self))
        floats = (self.n * (FACE_DIM + sum(self.seq_len[m] * self.feat_dim[m] for m in MODALITIES))
                  + self.n_classes * (FACE_DIM + sum(self.feat_dim.values())))
        if floats > MAX_FLOATS:
            raise ConfigError(f"n, n_classes, seq_len and feat_dim ask for {floats:,} floats, "
                              f"over the limit of {MAX_FLOATS:,}")
        priors = self.priors()
        if len(priors) != self.n_classes:
            raise ConfigError(f"class_priors must hold {self.n_classes} class priors")
        if abs(sum(priors) - 1.0) > 1e-9 or min(priors) < 0:
            raise ConfigError(f"class_priors must be nonnegative class priors that sum to 1, "
                              f"got {priors}")
        return self

    def priors(self) -> tuple:
        if self.class_priors is None:
            return tuple(1.0 / self.n_classes for _ in range(self.n_classes))
        return tuple(float(p) for p in self.class_priors)


def generate_synthetic(cfg: GeneratorConfig) -> list[InterviewSample]:
    """Draw a dataset of clip-level samples grouped into candidate videos."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    priors = np.array(cfg.priors())
    # run-level directions, shared by every candidate
    skill_dir = {m: _unit(rng.standard_normal(cfg.feat_dim[m])) for m in MODALITIES}
    prot_dir = {m: np.stack([_unit(rng.standard_normal(cfg.feat_dim[m]))
                             for _ in range(cfg.n_classes)]) for m in MODALITIES}
    face_dir = np.stack([_unit(rng.standard_normal(FACE_DIM))
                         for _ in range(cfg.n_classes)])
    # class leak values, evenly spaced and centered
    leak = np.linspace(-1.0, 1.0, cfg.n_classes)

    samples: list[InterviewSample] = []
    vid = 0
    while len(samples) < cfg.n:
        n_clips = min(int(rng.integers(1, cfg.max_clips + 1)), cfg.n - len(samples))
        video_id = f"vid{vid:05d}"
        vid += 1
        z = int(rng.choice(cfg.n_classes, p=priors))
        skill = float(rng.standard_normal())
        id_offset = {m: cfg.identity_scale * rng.standard_normal(cfg.feat_dim[m])
                     for m in MODALITIES}
        face = (cfg.face_separation * face_dir[z]
                + cfg.identity_scale * rng.standard_normal(FACE_DIM)
                + cfg.face_noise * rng.standard_normal(FACE_DIM))
        logit = cfg.skill_scale * skill + cfg.bias * cfg.leak_scale * leak[z]
        p_hire = float(logistic(np.array(logit)))
        for c in range(n_clips):
            seqs = {}
            for m in MODALITIES:
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
    return tuple([s for s in samples if s.split == t] for t in SPLITS)


# ------------------------------------------------------------- compression

@dataclass
class FaceProjection:
    """Top-q principal directions of the training faces."""
    mean: np.ndarray         # (d,)
    components: np.ndarray   # (q, d), orthonormal rows


def fit_compressor(faces: np.ndarray, q: int, seed: int = 0) -> FaceProjection:
    """Center on the training mean and extract q principal directions by
    power iteration with deflation: at most 1000 steps per direction, ending
    once a step moves it by less than 1e-10."""
    faces = np.asarray(faces, dtype=np.float64)
    if faces.ndim != 2 or faces.shape[0] < q + 1:
        raise ContractError(f"fit_compressor: need at least q+1={q + 1} face rows")
    mean = faces.mean(axis=0)
    centered = faces - mean
    work = centered.T @ centered        # the covariance, deflated in place below
    work /= faces.shape[0] - 1
    scale = float(np.trace(work)) / faces.shape[1]
    rng = np.random.default_rng(seed)
    components = []
    for comp in range(q):
        v = _unit(rng.standard_normal(faces.shape[1]))
        for _ in range(1000):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm <= scale * 1e-12:
                raise ContractError(
                    f"fit_compressor: data rank below q (failed at component {comp})")
            w /= norm
            if np.linalg.norm(w - v) < 1e-10:
                v = w
                break
            v = w
        lam = float(v @ work @ v)
        if lam <= scale * 1e-10:
            raise ContractError(
                f"fit_compressor: data rank below q (component {comp} has "
                f"negligible variance)")
        components.append(v)
        work -= lam * np.outer(v, v)
    return FaceProjection(mean=mean, components=np.stack(components))


def apply_compressor(proj: FaceProjection, faces: np.ndarray) -> np.ndarray:
    """Project (n, face_raw) faces onto the fitted directions (training statistics only)."""
    return (np.asarray(faces, dtype=np.float64) - proj.mean) @ proj.components.T


def load_face_targets(path, q: int) -> dict[str, np.ndarray]:
    """Import externally computed q-dim face embeddings (e.g. genuine UMAP
    output) as a JSON object mapping video_id -> q finite floats."""
    doc = read_json(path, ContractError)
    if not isinstance(doc, dict) or not doc:
        raise ContractError(f"{path}: expected a non-empty video_id -> vector mapping")
    out = {}
    for vid in doc:
        arr = _float_array(doc, vid, path)
        if arr.shape != (q,):
            raise ContractError(
                f"{path}: embedding for {vid!r} has shape {arr.shape}, expected ({q},)")
        out[vid] = arr
    return out


# ------------------------------------------------------------- persistence

def _array_json(a) -> str:
    """``json.dumps(np.asarray(a).tolist())``, byte for byte.

    orjson prints a double with Ryu's shortest round-trip digits, the ones
    ``float.__repr__`` picks, and when every value is 0 or has
    1e-4 <= |x| < 1e16 neither uses an exponent: the texts then differ only
    by the space after each comma.  Other arrays take the stdlib path:
    values outside that range or not finite, other dtypes (orjson misreads
    ``>f8``) and 0-d arrays.
    """
    a = np.asarray(a)
    if a.dtype == np.float64 and a.ndim:
        m = np.abs(a)
        if np.all(((m >= 1e-4) & (m < 1e16)) | (m == 0)):
            text = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY)
            return text.decode().replace(",", ", ")
    return json.dumps(a.tolist())


def save_jsonl(samples, path) -> None:
    """One JSON object per line with the full sample schema, in the bytes
    ``json.dumps`` writes for a dict of the JSONL_FIELDS in order."""
    with atomic_write(path) as fh:
        for s in samples:
            values = (json.dumps(s.id), json.dumps(s.video_id),
                      *(_array_json(getattr(s, f)) for f in (*SEQ_FIELDS, "face")),
                      json.dumps(int(s.y)), json.dumps(None if s.z is None else int(s.z)),
                      json.dumps(s.split))
            fh.write("{" + ", ".join(f'"{k}": {v}' for k, v in zip(JSONL_FIELDS, values))
                     + "}\n")


def _float_array(doc, name: str, where: str, bools: bool = True) -> np.ndarray:
    """A field as a finite float64 array.  Ragged input, and an element
    that is not a JSON number (a string, a bool, null), is rejected.  numpy
    reads ``[true, 2.5]`` as floats, so element types are checked unless
    ``bools`` is false (no bool in the document)."""
    try:
        arr = np.asarray(doc[name])
        kind = arr.dtype.kind       # "O": e.g. an int past int64's range, or a null
        if kind not in "fiuO" or ((bools or kind == "O") and any(
                type(v) not in (int, float) for v in np.asarray(doc[name], dtype=object).flat)):
            raise TypeError
        arr = arr.astype(np.float64, copy=False)    # OverflowError: past float range
    except (TypeError, ValueError, OverflowError):
        raise ContractError(f"{where}: {name} is not a numeric array")
    if not np.isfinite(arr).all():
        raise ContractError(f"{where}: {name} has a non-finite value")
    return arr


def _holds_bool_literal(line: bytes) -> bool:
    """Whether ``true`` or ``false`` occurs in the line.  Finding a first
    letter is a memchr, 20x faster on a 30 KB row than ``b"true" in line``."""
    for word in (b"true", b"false"):
        i = -1
        while (i := line.find(word[:1], i + 1)) >= 0:
            if line.startswith(word, i):
                return True
    return False


def _text_mode_lines(fh):
    """A binary file's lines, ended at LF, CRLF or CR as text mode ends them."""
    for chunk in fh:
        if b"\r" in chunk:
            yield from chunk.splitlines()
        else:
            yield chunk


def load_jsonl(path) -> list[InterviewSample]:
    """Read samples, checking each row against the first row's sequence shapes.

    Ids must be unique strings and every row must carry a split tag; a
    video id may span splits (``fairavi audit`` measures that leak).

    orjson parses each row.  A row it refuses (blank, or holding NaN,
    Infinity, 1e400 or a lone surrogate escape) is decoded as UTF-8 and
    given to the stdlib ``json``, which accepts it or words the error.  So
    every row the stdlib parser accepts loads to the same float64 values,
    except that orjson reads an integer outside the 64-bit range as a
    float.  Reading stops at the row whose sequence and face floats take the
    running count past MAX_FLOATS.
    """
    samples, seq_shapes, id_lines, floats = [], None, {}, 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(_text_mode_lines(fh), start=1):
            where = f"{path}:{lineno}"
            try:
                doc = orjson.loads(line)
            except orjson.JSONDecodeError:
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as e:
                    raise ContractError(f"{where}: not UTF-8 text ({e})")
                if not text.strip():
                    continue
                try:
                    doc = json.loads(text)
                except json.JSONDecodeError as e:
                    raise ContractError(f"{where}: malformed JSON ({e.msg})")
            if not isinstance(doc, dict):
                raise ContractError(f"{where}: a row must be a JSON object")
            missing = [f for f in JSONL_FIELDS if f not in doc]
            if missing:
                raise ContractError(f"{where}: missing field(s) {missing}")
            for f in ("id", "video_id"):
                if type(doc[f]) is not str:
                    raise ContractError(f"{where}: {f} must be a string, got {doc[f]!r}")
            if doc["id"] in id_lines:
                raise ContractError(f"{where}: duplicate id {doc['id']!r} "
                                    f"(first on line {id_lines[doc['id']]})")
            id_lines[doc["id"]] = lineno
            bools = _holds_bool_literal(line)
            face = _float_array(doc, "face", where, bools)
            if face.shape != (FACE_DIM,):
                raise ContractError(
                    f"{where}: face must have length {FACE_DIM}, got {face.shape}")
            seqs = {f: _float_array(doc, f, where, bools) for f in SEQ_FIELDS}
            seq_shapes = seq_shapes or {f: seq.shape for f, seq in seqs.items()}
            for f, seq in seqs.items():
                if seq.ndim != 2 or not seq.shape[1]:
                    raise ContractError(f"{where}: {f} must be 2-D with at least one "
                                        f"column, got shape {seq.shape}")
                if seq.shape != seq_shapes[f]:
                    raise ContractError(f"{where}: {f} has shape {seq.shape}, but the "
                                        f"first row's is {seq_shapes[f]}")
            floats += face.size + sum(seq.size for seq in seqs.values())
            if floats > MAX_FLOATS:
                raise ContractError(f"{where}: the sequence and face floats read so far "
                                    f"pass the limit of {MAX_FLOATS:,}")
            y, z = doc["y"], doc["z"]
            if type(y) is not int or y not in (0, 1):
                raise ContractError(f"{where}: y must be 0 or 1, got {y!r}")
            if z is not None and (type(z) is not int or z < 0):
                raise ContractError(
                    f"{where}: z must be null or a non-negative integer, got {z!r}")
            if doc["split"] not in SPLITS:
                raise ContractError(
                    f"{where}: split must be one of {list(SPLITS)}, got {doc['split']!r}")
            samples.append(InterviewSample(
                id=doc["id"], video_id=doc["video_id"], **seqs,
                face=face, y=y, z=z, split=doc["split"]))
    return samples
