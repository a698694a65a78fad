"""Assembly of the hireability network and its adversarial heads.

A model's parameters are one name -> shape table, param_shapes: its key
order is the draw order of layers.draw, the order of `params` and the
model file's names.  The layers read their parameters through views
over those same Nodes.  A model's kind (modality, variant, face code
width q, candidate count k) is held in the field types of _ModelFile, the
model file's header, and errors.check_fields tests it there, and its
ModelDims fields, whether the model is built or loaded.

The base network encodes each requested modality with a bidirectional
GRU plus additive attention, fuses the pooled vectors through a gated
multimodal unit (multimodal mode only), and runs a two-layer tanh trunk
whose output H feeds a sigmoid hireability unit.

Adversarial heads read H (through a gradient reversal node during joint
training):

  supervised-gender     sigmoid unit over a 30-wide sigmoid hidden layer
  supervised-ethnicity  3-way softmax over the same hidden layer
  static-faces          two stacked affine maps onto a q-dim face code
  negative-sampling     similarity scores of H against k candidate faces
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Node
from .data import FACE_DIM
from .errors import (FACE_DIMS, MODALITIES, VARIANTS, AtLeastTwoInt, ContractError, FaceDim,
                     Modality, PositiveEvenInt, PositiveInt, Variant, check_fields)
from .fileio import read_json, write_json

PROTECTED_CLASSES = {"gender": 2, "ethnicity": 3}
CHUNK = 512                    # clips per inference forward pass


def protected_labels(parts: dict, target: str) -> dict[str, np.ndarray]:
    """Each split's protected labels z as an int array, refused unless every
    label lies in range(n) for the target's n classes, with all n in train
    (where the adversary and the probe are fitted) and 2+ in any other split."""
    n = PROTECTED_CLASSES[target]
    for split, part in parts.items():
        found = {s.z for s in part}
        if not all(z in range(n) for z in found) or len(found) < (n if split == "train" else 2):
            raise ContractError(
                f"protected target {target!r}: z in the {split!r} split holds "
                f"{sorted(found, key=str)}; every z must lie in range({n}), with all {n} "
                f"classes in train and 2+ elsewhere")
    return {split: np.array([s.z for s in part], dtype=int) for split, part in parts.items()}


@dataclass
class ModelDims:
    input_dims: dict = field(default_factory=lambda: {"language": 16, "audio": 20, "video": 12})
    gru_width: PositiveEvenInt = 16    # total bidirectional output width (8 per direction)
    att_proj: PositiveInt = 30
    trunk_width: PositiveInt = 16
    adv_hidden: PositiveInt = 30       # supervised / static-faces hidden width
    ns_hidden: PositiveInt = 32        # negative-sampling interview-encoder hidden width
    face_raw: PositiveInt = FACE_DIM


@dataclass
class ForwardResult:
    H: Node
    y_hat: Node
    o_mm: Node
    contributions: dict | None


def _active_modalities(modality: str) -> tuple[str, ...]:
    return MODALITIES if modality == "multimodal" else (modality,)


def adversary_shapes(variant: str, dims: ModelDims, q: int) -> dict[str, tuple]:
    """Adversarial parameter shapes for a variant.

    Key order is the RNG draw order and the theta_a order; the names are
    part of the model file format.
    """
    d = dims
    supervised = lambda out: {"W_3": (d.adv_hidden, d.trunk_width), "b_3": (d.adv_hidden,),
                              "W_4": (out, d.adv_hidden), "b_4": (out,)}
    table = {
        "unprotected": {},
        "supervised-gender": supervised(1),
        "supervised-ethnicity": supervised(PROTECTED_CLASSES["ethnicity"]),
        "static-faces": {"W_5": (d.adv_hidden, d.trunk_width), "b_5": (d.adv_hidden,),
                         "W_6": (q, d.adv_hidden), "b_6": (q,)},
        "negative-sampling": {"W_7": (q, d.face_raw), "b_7": (q,),
                              "W_8": (d.ns_hidden, d.trunk_width), "b_8": (d.ns_hidden,),
                              "W_9": (q, d.ns_hidden), "b_9": (q,),
                              "W_10": (1, q), "b_10": (1,)},
    }
    return table[variant]


def param_shapes(modality: str, variant: str, dims: ModelDims, q: int) -> dict[str, tuple]:
    """Every parameter's shape in a model of this kind, in draw order: per
    modality its forward and backward GRU and attention, the GMU, the
    trunk and hireability head, then the adversary."""
    half, w, t, proj = dims.gru_width // 2, dims.gru_width, dims.trunk_width, dims.att_proj
    shapes = {}
    for m in _active_modalities(modality):
        n_in = dims.input_dims[m]
        gru = {**{f"W_{g}": (half, n_in) for g in "rzh"},
               **{f"U_{g}": (half, half) for g in "rzh"},
               **{f"b_{g}": (half,) for g in "rzh"}}
        for side in ("fwd", "bwd"):
            shapes.update({f"{m}.gru_{side}.{k}": v for k, v in gru.items()})
        shapes.update({f"{m}.att.W_A": (proj, w), f"{m}.att.b": (proj,),
                       f"{m}.att.u_p": (proj,)})
    if modality == "multimodal":
        shapes.update({f"gmu.W_{x}proj": (w, w) for x in "alv"})
        shapes.update({f"gmu.W_{x}gating": (1, 3 * w) for x in "alv"})
    shapes.update({"W_1": (t, w), "b_1": (t,), "W_2": (t, t), "b_2": (t,),
                   "W_v": (1, t), "b_v": (1,)})
    return {**shapes, **adversary_shapes(variant, dims, q)}


class HireabilityModel:
    """One trainable network: trunk + hireability head + optional adversary,
    its parameters drawn from `seed` or, given `values`, wrapping those arrays."""

    def __init__(self, modality: str = "multimodal", variant: str = "unprotected",
                 dims: ModelDims | None = None, q: int = 2, k: int = 5, seed: int = 0,
                 values: dict | None = None):
        self.dims = dims or ModelDims()
        check_fields(_ModelFile, {"modality": modality, "variant": variant, "q": q, "k": k},
                     ContractError)
        check_fields(ModelDims, asdict(self.dims), ContractError, "dims.")
        self.modality = modality
        self.variant = variant
        self.q = q
        self.k = k
        self.trained = False
        shapes = param_shapes(modality, variant, self.dims, q)
        p = self.params = (ly.draw(np.random.default_rng(seed), shapes) if values is None
                           else {name: ad.parameter(values[name]) for name in shapes})
        # the layers' views over the same Nodes, built once: fields are name suffixes
        view = lambda cls, prefix: cls(**{f: p[prefix + f] for f in cls.__dataclass_fields__})
        self.encoders = {m: (view(ly.GruParams, f"{m}.gru_fwd."),
                             view(ly.GruParams, f"{m}.gru_bwd."))
                         for m in self.active_modalities}
        self.attentions = {m: view(ly.AttentionParams, f"{m}.att.")
                           for m in self.active_modalities}
        self.gmu = view(ly.GmuParams, "gmu.") if modality == "multimodal" else None
        self.trunk1 = ly.DenseParams(p["W_1"], p["b_1"], "tanh")
        self.trunk2 = ly.DenseParams(p["W_2"], p["b_2"], "tanh")
        self.hire_head = ly.DenseParams(p["W_v"], p["b_v"], "sigmoid")

    # ------------------------------------------------------------- building

    @property
    def active_modalities(self) -> tuple[str, ...]:
        return _active_modalities(self.modality)

    def _adversary_shapes(self) -> dict[str, tuple]:
        return adversary_shapes(self.variant, self.dims, self.q)

    def reinit_adversary(self, seed: int) -> None:
        """Overwrite adversarial weights with a fresh layers.draw from seed, in place."""
        for name, fresh in ly.draw(np.random.default_rng(seed), self._adversary_shapes()).items():
            node = self.params[name]
            node.value[...] = fresh.value
            node.zero_grad()

    # ---------------------------------------------------------- partitions

    def theta_main(self) -> dict[str, Node]:
        """Every parameter outside the adversary, in params order."""
        adv = self._adversary_shapes()
        return {n: p for n, p in self.params.items() if n not in adv}

    def theta_a(self) -> dict[str, Node]:
        return {n: self.params[n] for n in self._adversary_shapes()}

    # ------------------------------------------------------------- forward

    def forward_base(self, batch: dict, training: bool = False,
                     rng: np.random.Generator | None = None,
                     dropout_rate: float = 0.0) -> ForwardResult:
        """Run the trunk on a batch of per-modality (B, T, d) arrays."""
        pooled = {}
        for m in self.active_modalities:
            if m not in batch or batch[m] is None:
                raise ContractError(f"forward_base: missing modality {m!r}")
            x = np.asarray(batch[m], dtype=np.float64)
            if x.ndim != 3 or x.shape[1] < 1:
                raise ContractError(f"forward_base: modality {m!r} needs a (B, T>=1, d) array")
            if x.shape[2] != self.dims.input_dims[m]:
                raise ContractError(f"forward_base: modality {m!r} has feature width "
                                    f"{x.shape[2]}, the model expects {self.dims.input_dims[m]}")
            fwd, bwd = self.encoders[m]
            z = ly.bigru_encode(fwd, bwd, ad.constant(x))
            pooled[m], _ = ly.attention_pool(self.attentions[m], z)
        contributions = None
        if self.modality == "multimodal":
            o_mm, _, contributions = ly.gmu_fuse(
                self.gmu, pooled["audio"], pooled["language"], pooled["video"])
        else:
            o_mm = pooled[self.modality]
        x1 = ly.dropout(o_mm, dropout_rate, training, rng)
        h1 = ly.dense_forward(self.trunk1, x1)
        h1 = ly.dropout(h1, dropout_rate, training, rng)
        H = ly.dense_forward(self.trunk2, h1)
        y = ly.dense_forward(self.hire_head, H)
        y_hat = ad.reshape(y, (y.value.shape[0],))
        return ForwardResult(H=H, y_hat=y_hat, o_mm=o_mm, contributions=contributions)

    # --------------------------------------------------------------- heads

    def head_supervised(self, H) -> Node:
        """Protected-class prediction: (B,) sigmoid for gender, (B, 3) softmax
        for ethnicity, over a shared sigmoid hidden layer."""
        hidden = ad.sigmoid(ad.linear(H, self.params["W_3"], self.params["b_3"]))
        logits = ad.linear(hidden, self.params["W_4"], self.params["b_4"])
        if self.variant == "supervised-gender":
            return ad.reshape(ad.sigmoid(logits), (logits.value.shape[0],))
        return ad.softmax(logits)

    def head_static_faces(self, H) -> Node:
        """Two stacked affine maps, no nonlinearity: W_6 (W_5 H + b_5) + b_6."""
        inner = ad.linear(H, self.params["W_5"], self.params["b_5"])
        return ad.linear(inner, self.params["W_6"], self.params["b_6"])

    def head_negative_sampling(self, H, faces: np.ndarray) -> tuple[Node, Node]:
        """Score H against (B, k, face_raw) faces; returns (scores, p) of shape (B, k).

        Faces are encoded by tanh(W_7 w + b_7), the interview by
        tanh(W_9 (W_8 H + b_8) + b_9); their Hadamard product plus a scalar
        bias feeds the scoring row W_10.
        """
        faces = np.asarray(faces, dtype=np.float64)
        B, k, fd = faces.shape
        flat = ad.constant(faces.reshape(B * k, fd))
        w_hat = ad.tanh(ad.linear(flat, self.params["W_7"], self.params["b_7"]))
        w_hat = ad.reshape(w_hat, (B, k, self.q))
        inner = ad.linear(H, self.params["W_8"], self.params["b_8"])
        h_hat = ad.tanh(ad.linear(inner, self.params["W_9"], self.params["b_9"]))
        prod = ad.add(ad.mul(w_hat, ad.reshape(h_hat, (B, 1, self.q))), self.params["b_10"])
        scores = ad.reshape(ad.linear(ad.reshape(prod, (B * k, self.q)), self.params["W_10"]),
                            (B, k))
        return scores, ad.softmax(scores)

    # ------------------------------------------------------------ snapshot

    def snapshot(self, names=None) -> dict[str, np.ndarray]:
        names = self.params.keys() if names is None else names
        return {n: self.params[n].value.copy() for n in names}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for n, v in snap.items():
            self.params[n].value[...] = v


# -------------------------------------------------------------- inference

def batch_sequences(samples, modalities) -> dict[str, np.ndarray]:
    """Stack per-sample sequences into (B, T, d) arrays; ragged ones raise ValueError."""
    return {m: np.array([getattr(s, f"seq_{m}") for s in samples], dtype=np.float64)
            for m in modalities}


def infer(model: HireabilityModel, samples):
    """One inference-mode pass (no dropout) over a sample list.

    The pass records no tape (autodiff.no_tape) and runs CHUNK clips at a
    time; only one chunk's forward result is alive at once, since each is
    dropped before the next chunk is built.

    Returns (H, y_hat, norms): norms maps modality -> (n,) L2 norms of the
    gated modality vectors for a multimodal model, and is None otherwise.

    H and y_hat of a clip repeat byte for byte for the same sample list,
    but not across batch compositions: BLAS may order a matmul's sums by
    batch shape, so the same clip in another chunk can differ in the last
    bits (up to 2.8e-16 in H on a seed-11 corpus).  Compare like batches.
    """
    hs, ys, norms = [], [], {m: [] for m in MODALITIES}
    with ad.no_tape():
        for lo in range(0, len(samples), CHUNK):
            res = model.forward_base(
                batch_sequences(samples[lo:lo + CHUNK], model.active_modalities))
            hs.append(res.H.value)
            ys.append(res.y_hat.value)
            for m, c in (res.contributions or {}).items():
                norms[m].append(np.linalg.norm(c.value, axis=-1))
            del res     # before the next chunk is built
    if model.modality != "multimodal":
        return np.concatenate(hs), np.concatenate(ys), None
    return np.concatenate(hs), np.concatenate(ys), {m: np.concatenate(v) for m, v in norms.items()}


def predict(model: HireabilityModel, samples):
    """Inference-mode H and y_hat over a sample list (no dropout)."""
    return infer(model, samples)[:2]


def modality_contributions(model: HireabilityModel, samples):
    """Per-sample L2 norms of the gated modality vectors, plus summaries.

    Returns (norms, summary): norms maps modality -> (n,) array, summary
    maps modality -> dict with mean and quartiles.
    """
    if model.modality != "multimodal":
        raise ContractError("modality contributions require a multimodal model")
    _, _, norms = infer(model, samples)
    return norms, {m: {"mean": float(n.mean()),
                       "q25": float(np.quantile(n, 0.25)),
                       "median": float(np.quantile(n, 0.5)),
                       "q75": float(np.quantile(n, 0.75))}
                   for m, n in norms.items()}


# ------------------------------------------------------------- persistence

@dataclass
class _ModelFile:
    """The fields of a save_model document, as load_model checks them."""
    modality: Modality
    variant: Variant
    q: FaceDim
    k: AtLeastTwoInt
    trained: bool
    dims: object
    params: object
    format: str = "fairavi-model-v1"


def save_model(model: HireabilityModel, path) -> None:
    """Serialize to JSON with hex-float payloads (bit-exact round trip)."""
    params = {name: {"shape": list(node.value.shape),
                     "data": [v.hex() for v in node.value.ravel().tolist()]}
              for name, node in sorted(model.params.items())}
    doc = _ModelFile(model.modality, model.variant, model.q, model.k, model.trained,
                     asdict(model.dims), params)
    write_json(path, vars(doc))


def _file_param(entry, shape: tuple, where: str) -> np.ndarray:
    """A stored parameter's values, checked against the model's shape."""
    if not isinstance(entry, dict) or set(entry) != {"data", "shape"}:
        raise ContractError(f"{where}: expected an object with 'shape' and 'data'")
    if entry["shape"] != list(shape):
        raise ContractError(f"{where} has shape {entry['shape']!r}, expected {list(shape)}")
    data, size = entry["data"], math.prod(shape)
    if not isinstance(data, list) or len(data) != size:
        held = len(data) if isinstance(data, list) else type(data).__name__
        raise ContractError(f"{where}: data holds {held} values, shape {list(shape)} "
                            f"needs {size}")
    values = []
    for i, v in enumerate(data):
        try:
            x = float.fromhex(v)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if not math.isfinite(x):
            raise ContractError(f"{where}: value {i} ({v!r}) is not a finite hex float")
        values.append(x)
    return np.array(values, dtype=np.float64).reshape(shape)


def load_model(path) -> HireabilityModel:
    """Read a save_model file, bit-exact.

    Any fault in the file raises ContractError naming the path, and the
    field or parameter where there is one: an unreadable or non-JSON file
    or one that repeats a key, a document that is not an object with
    exactly save_model's keys, a header or dims field that check_fields
    refuses (a width must be a positive int, gru_width an even one, k at
    least 2, modality, variant and q one of their choices), a parameter
    set or shape other than the model's, a data length that does not fit
    the shape, or a value that is not a finite hex float string.
    """
    doc = read_json(path, ContractError)
    if not isinstance(doc, dict) or doc.get("format") != "fairavi-model-v1":
        raise ContractError(f"{path}: not a recognized model file")
    try:
        f = _ModelFile(**check_fields(_ModelFile, doc, ContractError, complete=True))
        dims = ModelDims(**check_fields(ModelDims, f.dims, ContractError, "dims.", complete=True))
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from None
    shapes = param_shapes(f.modality, f.variant, dims, f.q)
    if (missing := set(shapes) - set(f.params)) | (extra := set(f.params) - set(shapes)):
        raise ContractError(f"{path}: parameter names mismatch (missing {sorted(missing)}, "
                            f"unexpected {sorted(extra)})")
    values = {name: _file_param(entry, shapes[name], f"{path}: {name}")
              for name, entry in f.params.items()}
    model = HireabilityModel(f.modality, f.variant, dims, q=f.q, k=f.k, values=values)
    model.trained = f.trained
    return model
