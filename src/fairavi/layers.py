"""Neural building blocks: dense layer, GRU cell, bidirectional GRU
encoder, additive attention pooling, gated multimodal fusion, dropout,
L2 penalty and global-norm gradient clipping.

All forwards operate on autodiff Nodes and accept either a single
sample or a leading batch axis.  Weight matrices are stored [out, in]
and applied as x @ W.T + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ShapeMismatch


def glorot(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_out, n_in))


# ------------------------------------------------------------------- dense

@dataclass
class DenseParams:
    W: Node                 # [out, in]
    b: Node                 # [out]
    activation: str = "identity"   # tanh | sigmoid | softmax | identity


def init_dense(rng, n_out: int, n_in: int, activation: str = "identity") -> DenseParams:
    return DenseParams(ad.parameter(glorot(rng, n_out, n_in)),
                       ad.parameter(np.zeros(n_out)), activation)


_ACTIVATIONS = {
    "identity": lambda x: x,
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "softmax": ad.softmax,
}


def dense_forward(p: DenseParams, x) -> Node:
    """activation(W x + b) on a vector or a batch of row vectors."""
    x = ad.constant(x)
    n_out, n_in = p.W.value.shape
    single = x.value.ndim == 1
    if x.value.shape[-1] != n_in:
        raise ShapeMismatch(f"dense: input width {x.value.shape[-1]} != {n_in}")
    if single:
        x = ad.reshape(x, (1, n_in))
    y = ad.add(ad.matmul(x, ad.transpose(p.W)), p.b)
    y = _ACTIVATIONS[p.activation](y)
    if single:
        y = ad.reshape(y, (n_out,))
    return y


# --------------------------------------------------------------------- GRU

@dataclass
class GruParams:
    W_r: Node
    W_z: Node
    W_h: Node
    U_r: Node
    U_z: Node
    U_h: Node
    b_r: Node
    b_z: Node
    b_h: Node
    hidden: int


def init_gru(rng, hidden: int, n_in: int) -> GruParams:
    p = lambda shape: ad.parameter(glorot(rng, *shape))
    return GruParams(
        W_r=p((hidden, n_in)), W_z=p((hidden, n_in)), W_h=p((hidden, n_in)),
        U_r=p((hidden, hidden)), U_z=p((hidden, hidden)), U_h=p((hidden, hidden)),
        b_r=ad.parameter(np.zeros(hidden)),
        b_z=ad.parameter(np.zeros(hidden)),
        b_h=ad.parameter(np.zeros(hidden)),
        hidden=hidden)


def gru_step(p: GruParams, x_t, h_prev) -> Node:
    """One reset/update/candidate step.

    r = sig(W_r x + U_r h + b_r)
    z = sig(W_z x + U_z h + b_z)
    hhat = tanh(W_h x + U_h (r*h) + b_h)
    h_t = (1 - z)*h_prev + z*hhat
    """
    x_t, h_prev = ad.constant(x_t), ad.constant(h_prev)
    single = x_t.value.ndim == 1
    if single:
        x_t = ad.reshape(x_t, (1, -1))
        h_prev = ad.reshape(h_prev, (1, -1))
    if x_t.value.shape[-1] != p.W_r.value.shape[1]:
        raise ShapeMismatch(
            f"gru_step: input width {x_t.value.shape[-1]} != {p.W_r.value.shape[1]}")
    if h_prev.value.shape[-1] != p.hidden:
        raise ShapeMismatch(
            f"gru_step: hidden width {h_prev.value.shape[-1]} != {p.hidden}")
    px = {g: ad.add(ad.matmul(x_t, ad.transpose(W)), b) for g, W, b in
          (("r", p.W_r, p.b_r), ("z", p.W_z, p.b_z), ("h", p.W_h, p.b_h))}
    h_t = _gru_mix(p, px, h_prev)
    return ad.reshape(h_t, (p.hidden,)) if single else h_t


def _gru_mix(p: GruParams, px: dict, h_prev: Node) -> Node:
    """Recurrent half of the step; px carries W x + b per gate."""
    r = ad.sigmoid(ad.add(px["r"], ad.matmul(h_prev, ad.transpose(p.U_r))))
    z = ad.sigmoid(ad.add(px["z"], ad.matmul(h_prev, ad.transpose(p.U_z))))
    rh = ad.mul(r, h_prev)
    hhat = ad.tanh(ad.add(px["h"], ad.matmul(rh, ad.transpose(p.U_h))))
    # (1 - z)*h_prev + z*hhat, written as h_prev + z*(hhat - h_prev)
    return ad.add(h_prev, ad.mul(z, ad.sub(hhat, h_prev)))


def _gru_sequence(p: GruParams, x: Node, reverse: bool) -> Node:
    """Hidden states (B, T, hidden) of one direction, starting from zeros.

    The input projections are tape ops over the whole sequence; the
    recurrence is one tape node running _gru_mix's rules in numpy.  Each
    gradient buffer gets its terms in the order a tape of _gru_mix steps
    adds them, so values and gradients match that tape bit for bit."""
    B, T, d = x.value.shape
    flat = ad.reshape(x, (B * T, d))
    proj = [ad.reshape(ad.add(ad.matmul(flat, ad.transpose(W)), b), (B, T, p.hidden))
            for W, b in ((p.W_r, p.b_r), (p.W_z, p.b_z), (p.W_h, p.b_h))]
    U = (p.U_r, p.U_z, p.U_h)
    P, UT = [n.value for n in proj], [u.value.T for u in U]
    hs, h, saved = np.zeros((B, T, p.hidden)), np.zeros((B, p.hidden)), []
    with np.errstate(over="ignore"):   # exp overflow saturates a gate to exactly 0.0
        for t in (range(T - 1, -1, -1) if reverse else range(T)):
            r = 1.0 / (1.0 + np.exp(-(P[0][:, t, :] + h @ UT[0])))
            z = 1.0 / (1.0 + np.exp(-(P[1][:, t, :] + h @ UT[1])))
            rh = r * h
            hhat = np.tanh(P[2][:, t, :] + rh @ UT[2])
            diff = hhat - h
            saved.append((t, h, r, z, rh, hhat, diff))
            h = hs[:, t, :] = h + z * diff

    def backward(g):
        grads = [n.grad if n.requires_grad else None for n in (*proj, *U)]
        later = []          # terms the step after adds to this step's state
        for t, h_prev, r, z, rh, hhat, diff in reversed(saved):
            # a forward-direction state takes its output term first, a
            # backward-direction state last, as on the unfused tape
            terms = later + [g[:, t, :]] if reverse else [g[:, t, :]] + later
            g_h = sum(terms[1:], terms[0] + 0.0)
            g_z, g_d = g_h * diff, g_h * z
            g_ah = g_d * (1.0 - hhat * hhat)
            g_rh = g_ah @ UT[2].T
            g_ar = g_rh * h_prev * r * (1.0 - r)
            g_az = g_z * z * (1.0 - z)
            for i, (g_a, a) in enumerate(((g_ar, h_prev), (g_az, h_prev), (g_ah, rh))):
                if grads[i] is not None:
                    grads[i][:, t, :] += g_a
                if grads[3 + i] is not None:
                    grads[3 + i] += (a.T @ g_a).T
            later = [g_h, g_az @ UT[1].T, -g_d, g_rh * r, g_ar @ UT[0].T]

    return Node(hs, (*proj, *U), op="gru", backward=backward)


def bigru_encode(fwd: GruParams, bwd: GruParams, x) -> Node:
    """Encode a (B, T, d) or (T, d) sequence to (B, T, 2h) / (T, 2h).

    Row t concatenates the forward hidden state after x_0..x_t with the
    backward hidden state after x_{T-1}..x_t; both start from zeros.
    """
    x = ad.constant(x)
    single = x.value.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.value.shape)
    if x.value.shape[1] < 1:
        raise ShapeMismatch("bigru_encode: empty sequence")
    out = ad.concat([_gru_sequence(fwd, x, reverse=False),
                     _gru_sequence(bwd, x, reverse=True)], axis=-1)
    if single:
        out = ad.reshape(out, out.value.shape[1:])
    return out


# --------------------------------------------------------------- attention

@dataclass
class AttentionParams:
    W_A: Node      # [proj, in]
    b: Node        # [proj]
    u_p: Node      # [proj]


def init_attention(rng, proj: int, n_in: int) -> AttentionParams:
    return AttentionParams(ad.parameter(glorot(rng, proj, n_in)),
                           ad.parameter(np.zeros(proj)),
                           ad.parameter(glorot(rng, proj, 1).reshape(proj)))


def attention_pool(p: AttentionParams, z) -> tuple[Node, Node]:
    """Additive attention over time.

    u_t = tanh(W_A z_t + b); alpha = softmax_t(u_p . u_t); o = sum alpha_t z_t.
    Returns (o, alpha) with shapes (B, w) and (B, T).
    """
    z = ad.constant(z)
    single = z.value.ndim == 2
    if single:
        z = ad.reshape(z, (1,) + z.value.shape)
    B, T, w = z.value.shape
    proj = p.u_p.value.shape[0]
    flat = ad.reshape(z, (B * T, w))
    u = ad.tanh(ad.add(ad.matmul(flat, ad.transpose(p.W_A)), p.b))
    scores = ad.reshape(ad.matmul(u, ad.reshape(p.u_p, (proj, 1))), (B, T))
    alpha = ad.softmax(scores)
    o = ad.sum_(ad.mul(z, ad.reshape(alpha, (B, T, 1))), axis=1)
    if single:
        o = ad.reshape(o, (w,))
        alpha = ad.reshape(alpha, (T,))
    return o, alpha


# --------------------------------------------------------------------- GMU

@dataclass
class GmuParams:
    W_aproj: Node
    W_lproj: Node
    W_vproj: Node
    W_agating: Node   # [1, 3*in]
    W_lgating: Node
    W_vgating: Node


def init_gmu(rng, width: int) -> GmuParams:
    p = lambda shape: ad.parameter(glorot(rng, *shape))
    return GmuParams(
        W_aproj=p((width, width)), W_lproj=p((width, width)), W_vproj=p((width, width)),
        W_agating=p((1, 3 * width)), W_lgating=p((1, 3 * width)), W_vgating=p((1, 3 * width)))


def gmu_fuse(p: GmuParams, o_a, o_l, o_v):
    """Gated fusion of the three modality vectors.

    Each modality is tanh-projected, gated by a sigmoid of the full
    concatenation, and the gated vectors are summed.  Returns
    (o_mm, gates, contributions) where contributions are the three
    gated vectors whose sum is exactly o_mm.
    """
    o_a, o_l, o_v = ad.constant(o_a), ad.constant(o_l), ad.constant(o_v)
    single = o_a.value.ndim == 1
    if single:
        o_a, o_l, o_v = (ad.reshape(o, (1, -1)) for o in (o_a, o_l, o_v))
    width = p.W_aproj.value.shape[1]
    for name, o in (("audio", o_a), ("language", o_l), ("video", o_v)):
        if o.value.shape[-1] != width:
            raise ShapeMismatch(f"gmu_fuse: {name} width {o.value.shape[-1]} != {width}")
    cat = ad.concat([o_a, o_l, o_v], axis=-1)
    proj = {
        "audio": ad.tanh(ad.matmul(o_a, ad.transpose(p.W_aproj))),
        "language": ad.tanh(ad.matmul(o_l, ad.transpose(p.W_lproj))),
        "video": ad.tanh(ad.matmul(o_v, ad.transpose(p.W_vproj))),
    }
    gates = {
        "audio": ad.sigmoid(ad.matmul(cat, ad.transpose(p.W_agating))),
        "language": ad.sigmoid(ad.matmul(cat, ad.transpose(p.W_lgating))),
        "video": ad.sigmoid(ad.matmul(cat, ad.transpose(p.W_vgating))),
    }
    contributions = {m: ad.mul(gates[m], proj[m]) for m in proj}
    o_mm = ad.add(ad.add(contributions["audio"], contributions["language"]),
                  contributions["video"])
    if single:
        o_mm = ad.reshape(o_mm, (width,))
        gates = {m: ad.reshape(g, (1,)) for m, g in gates.items()}
        contributions = {m: ad.reshape(c, (width,)) for m, c in contributions.items()}
    return o_mm, gates, contributions


# ----------------------------------------------------------------- dropout

def dropout(x, rate: float, training: bool, rng: np.random.Generator | None = None) -> Node:
    """Inverted dropout: zero with probability `rate`, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    x = ad.constant(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: rng required in training mode")
    mask = (rng.random(x.value.shape) >= rate) / (1.0 - rate)
    return ad.mul(x, ad.constant(mask))


# ------------------------------------------------- regularization utilities

def l2_penalty(params: dict[str, Node], coeff: float) -> Node:
    """coeff * sum of squared entries of weight matrices (bias vectors,
    recognized by a final name component starting with 'b', excluded)."""
    if coeff < 0:
        raise ValueError(f"l2_penalty: coeff must be nonnegative, got {coeff}")
    total = ad.constant(0.0)
    for name, node in sorted(params.items()):
        if is_bias(name):
            continue
        total = ad.add(total, ad.sum_(ad.mul(node, node)))
    return ad.mul(total, ad.constant(coeff))


def is_bias(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("b")


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it."""
    if max_norm <= 0:
        raise ValueError(f"clip_gradients: max_norm must be positive, got {max_norm}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}
