"""Neural building blocks: the initialisation rule, dense layer,
bidirectional GRU encoder, additive attention pooling, gated multimodal
fusion, dropout, L2 penalty and global-norm gradient clipping.

All forwards operate on autodiff Nodes and take batches: a leading
batch axis on every input, as model.forward_base builds them.  Weight
matrices are stored [out, in] and applied as x @ W.T + b.  A layer's
parameters are a view: a dataclass over Nodes that `draw` made from a
name -> shape table (model.param_shapes), each field named as the
name's last component.  The BiGRU encoder, attention pooling and the
GMU are one tape node each, whose numpy backward keeps the summation
order of the unfused tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, ShapeMismatch


def glorot(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)) over an [out, in] shape;
    a vector is drawn as one [out, 1] column."""
    limit = math.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) == 2 else 1)))
    return rng.uniform(-limit, limit, size=shape)


def is_bias(name: str) -> bool:
    """A bias is named with a last component that starts with 'b'."""
    return name.rsplit(".", 1)[-1].startswith("b")


def draw(rng: np.random.Generator, shapes: dict[str, tuple]) -> dict[str, Node]:
    """Initial parameters in key order: zeros for a bias (is_bias), a Glorot
    draw from rng for anything else."""
    return {name: ad.parameter(np.zeros(shape) if is_bias(name) else glorot(rng, shape))
            for name, shape in shapes.items()}


# ------------------------------------------------------------------- dense

@dataclass
class DenseParams:
    W: Node                 # [out, in]
    b: Node                 # [out]
    activation: str = "identity"   # tanh | sigmoid | identity


_ACTIVATIONS = {
    "identity": lambda x: x,
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
}


def dense_forward(p: DenseParams, x) -> Node:
    """activation(W x + b) on a (B, in) batch of row vectors."""
    x = ad.constant(x)
    n_in = p.W.value.shape[1]
    if x.value.ndim != 2 or x.value.shape[1] != n_in:
        raise ShapeMismatch(f"dense: input {x.value.shape} is not a (B, {n_in}) batch")
    return _ACTIVATIONS[p.activation](ad.linear(x, p.W, p.b))


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


def _bigru(fwd: GruParams, bwd: GruParams, flat: Node, B: int, T: int) -> Node:
    """Both directions' hidden states as one (B, T, 2h) tape node.

    Its parents are flat, the six W, the six b and the six U, in (gate,
    direction) order.  It computes the projections W x + b itself, one
    (gate, direction) at a time: a matmul over x's time-major rows, then
    the bias add into a (T, gate, direction, B, h) stack, the backward
    direction reversed in time.  Step s advances the forward direction at
    t = s and the backward one at t = T-1-s, r and z from one matmul and
    one sigmoid: r = sig(W_r x + U_r h + b_r), z likewise,
    hhat = tanh(W_h x + U_h (r*h) + b_h), h <- h + z*(hhat - h).  Only a
    taped node keeps each step's state, r, z and hhat; its backward adds
    the W, b and x gradients too, each buffer's terms in the order a tape
    of linear projections and one GRU cell per step (tests/test_layers.py's
    gru_mix) adds them, so values and gradients match that tape bit for bit."""
    h, d = fwd.U_r.value.shape[0], flat.value.shape[1]
    W, b, U = ([getattr(p, f"{kind}_{g}") for g in "rzh" for p in (fwd, bwd)]
               for kind in "WbU")
    Ws = np.stack([w.value for w in W])                     # (6, h, d)
    xt = flat.value.reshape(B, T, d).transpose(1, 0, 2).reshape(T * B, d)
    P = np.empty((T, 3, 2, B, h))
    wide = P.reshape(T, 3, 2, B * h)        # the bias add runs B*h wide, not h
    proj = np.empty((T, B * h))         # one (gate, direction) product at a time
    for i, v in enumerate(b):
        np.matmul(xt, Ws[i].T, out=proj.reshape(T * B, h))
        np.add(proj[::-1] if i % 2 else proj, np.tile(v.value, B), out=wide[:, i // 2, i % 2])
    del xt, proj        # the steps then run beside P and the output only
    Us = np.stack([u.value for u in U]).reshape(3, 2, h, h)
    UT = Us.transpose(0, 1, 3, 2).copy()     # contiguous: matmul on a transposed view is slower
    state, value, saved = np.zeros((2, B, h)), np.empty((B, T, 2 * h)), []
    keep = saved.append if ad.recording() else lambda step: None   # only a backward reads them
    with np.errstate(over="ignore"):   # exp overflow saturates a gate to exactly 0.0
        for s in range(T):
            rz = np.matmul(state, UT[:2])
            rz += P[s, :2]
            np.negative(rz, out=rz)
            np.exp(rz, out=rz)
            rz += 1.0
            np.divide(1.0, rz, out=rz)
            hhat = np.matmul(rz[0] * state, UT[2])
            hhat += P[s, 2]
            np.tanh(hhat, out=hhat)
            keep((state, rz, hhat))
            state = state + rz[1] * (hhat - state)
            value[:, s, :h], value[:, T - 1 - s, h:] = state

    def backward(g):
        # a forward-direction state takes its output term first and a
        # backward-direction state last, as on the unfused tape
        first, last = np.zeros((T, 2, B, h)), np.zeros((T, 2, B, h))
        first[:, 0] = g[:, :, :h].transpose(1, 0, 2)
        first += 0.0        # -0.0 -> 0.0, as the tape's first sum did
        last[:, 1] = g[:, ::-1, h:].transpose(1, 0, 2)
        S, RZ, HH = (np.stack(a) for a in zip(*saved))    # S[s]: state entering step s
        R, Z = RZ[:, 0], RZ[:, 1]
        RH = R * S
        diff, d_r, d_z, d_hh = HH - S, 1.0 - R, 1.0 - Z, 1.0 - HH * HH
        g_proj = np.empty((3, T, 2, B, h))      # d(loss)/d(W x + b) per gate and step
        later = None        # terms the step after adds to this step's state
        for s in range(T - 1, -1, -1):
            if later is None:
                g_h = first[s] + last[s]
            else:
                g_next, g_uz, g_d, g_rr, g_ur = later
                g_h = first[s] + g_next
                g_h += g_uz
                g_h -= g_d
                g_h += g_rr
                g_h += g_ur
                g_h += last[s]
            g_z, g_d = g_h * diff[s], g_h * Z[s]
            g_ah = np.multiply(g_d, d_hh[s], out=g_proj[2, s])
            g_rh = g_ah @ Us[2]
            g_ar = np.multiply(g_rh * S[s] * R[s], d_r[s], out=g_proj[0, s])
            g_az = np.multiply(g_z * Z[s], d_z[s], out=g_proj[1, s])
            later = g_h, g_az @ Us[1], g_d, g_rh * R[s], g_ar @ Us[0]
        # the projections' gradients as (B*T, h) rows in the input's order,
        # the order a linear node over the flat sequence sums them in
        G = np.empty((3, 2, B, T, h))
        G[:, 0] = g_proj[:, :, 0].transpose(0, 2, 1, 3)
        G[:, 1] = g_proj[:, ::-1, 1].transpose(0, 2, 1, 3)
        G = G.reshape(6, B * T, h)
        g_W = np.matmul(flat.value.T, G)
        g_b = G.sum(axis=1)
        for w, v, g_w, g_v in zip(W, b, g_W, g_b):
            if v.requires_grad:
                v.grad += g_v
            if w.requires_grad:
                w.grad += g_w.T
        if flat.requires_grad:      # per direction z + candidate + r, as the tape sums them
            g_x = np.matmul(G, Ws).reshape(3, 2, B * T, d)
            for g_r, g_z, g_c in g_x.swapaxes(0, 1):
                flat.grad += g_z + g_c + g_r
        # each step's U term (a.T @ g_a).T, a = h_prev for r and z and r*h_prev
        # for the candidate, added last step first
        terms = np.empty((3, T, 2, h, h))
        np.matmul(S.swapaxes(-1, -2), g_proj[:2], out=terms[:2])
        np.matmul(RH.swapaxes(-1, -2), g_proj[2], out=terms[2])
        terms = terms.swapaxes(-1, -2)
        g_U = np.stack([u.grad for u in U]).reshape(3, 2, h, h)
        for s in range(T - 1, -1, -1):
            g_U += terms[:, s]
        for u, g_u in zip(U, g_U.reshape(6, h, h)):
            if u.requires_grad:
                u.grad[...] = g_u

    return Node(value, (flat, *W, *b, *U), op="gru", backward=backward)


def bigru_encode(fwd: GruParams, bwd: GruParams, x) -> Node:
    """Encode a (B, T, d) batch of sequences to (B, T, 2h).

    Row t concatenates the forward hidden state after x_0..x_t with the
    backward hidden state after x_{T-1}..x_t; both start from zeros.
    """
    x = ad.constant(x)
    if x.value.ndim != 3 or x.value.shape[1] < 1:
        raise ShapeMismatch(f"bigru_encode: input {x.value.shape} is not a (B, T, d) "
                            "batch of non-empty sequences")
    B, T, d = x.value.shape
    return _bigru(fwd, bwd, ad.reshape(x, (B * T, d)), B, T)


# --------------------------------------------------------------- attention

@dataclass
class AttentionParams:
    W_A: Node      # [proj, in]
    b: Node        # [proj]
    u_p: Node      # [proj]


def attention_pool(p: AttentionParams, z) -> tuple[Node, Node]:
    """Additive attention over time as one `attention` node on (z, W_A, b, u_p).

    u_t = tanh(W_A z_t + b); alpha = softmax_t(u_p . u_t); o = sum alpha_t z_t.
    Returns (o, alpha) with shapes (B, w) and (B, T), alpha a value-only leaf.
    The node saves only u and alpha; its backward adds each gradient term in
    the order a tape of linear, tanh, matmul, softmax, mul and sum_ nodes
    does, so values and gradients match that tape bit for bit.
    """
    z = ad.constant(z)
    if z.value.ndim != 3 or z.value.shape[1] < 1:
        raise ShapeMismatch(f"attention_pool: input {z.value.shape} is not a (B, T, w) "
                            "batch of non-empty sequences")
    B, T, w = z.value.shape
    W_A, b, u_p = p.W_A, p.b, p.u_p
    flat = z.value.reshape(B * T, w)
    u = flat @ W_A.value.T
    np.tanh(np.add(u, b.value, out=u), out=u)
    alpha = (u @ u_p.value.reshape(-1, 1)).reshape(B, T)
    alpha -= alpha.max(axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=-1, keepdims=True)

    def backward(g):    # += onto zeroed buffers turns -0.0 into 0.0, as the tape's sums do
        g = g[:, None, :]
        g_alpha = (g * z.value).sum(axis=2)
        g_s = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))
        g_s = g_s.reshape(B * T, 1)
        if u_p.requires_grad:
            u_p.grad += (u.T @ g_s).reshape(-1)
        g_a = (g_s @ u_p.value.reshape(-1, 1).T) * (1.0 - u * u)
        if b.requires_grad:
            b.grad += g_a.sum(axis=0)
        if W_A.requires_grad:
            W_A.grad += (flat.T @ g_a).T
        if z.requires_grad:         # the pooling term first, as the tape adds it
            z.grad += g * alpha[:, :, None]
            z.grad += (g_a @ W_A.value).reshape(B, T, w)

    o = Node((z.value * alpha[:, :, None]).sum(axis=1), (z, W_A, b, u_p),
             op="attention", backward=backward)
    return o, ad.constant(alpha)


# --------------------------------------------------------------------- GMU

@dataclass
class GmuParams:
    W_aproj: Node
    W_lproj: Node
    W_vproj: Node
    W_agating: Node   # [1, 3*in]
    W_lgating: Node
    W_vgating: Node


GMU_ORDER = ("audio", "language", "video")


def gmu_fuse(p: GmuParams, o_a, o_l, o_v):
    """Gated fusion of the three modalities' (B, width) batches as one `gmu`
    node on the three inputs and the six weights.

    Each modality is tanh-projected, gated by a sigmoid of the full
    concatenation, and the gated vectors are summed.  Returns
    (o_mm, gates, contributions), the last two mapping each modality to a
    value-only leaf; the contributions sum to exactly o_mm.  The backward
    adds each term in the order a tape of concat, linear, tanh, sigmoid,
    mul and add nodes does, so values and gradients match it bit for bit.
    """
    xs = tuple(ad.constant(o) for o in (o_a, o_l, o_v))
    width = p.W_aproj.value.shape[1]
    for name, o in zip(GMU_ORDER, xs):
        if o.value.shape != (xs[0].value.shape[0], width):
            raise ShapeMismatch(f"gmu_fuse: {name} input {o.value.shape} is not a "
                                f"(B, {width}) batch")
    W = (p.W_aproj, p.W_lproj, p.W_vproj)
    Wg = (p.W_agating, p.W_lgating, p.W_vgating)
    cat = np.concatenate([o.value for o in xs], axis=-1)
    proj = [np.tanh(o.value @ w.value.T) for o, w in zip(xs, W)]
    gates = [ad.logistic(cat @ w.value.T) for w in Wg]
    contributions = [gt * pr for gt, pr in zip(gates, proj)]

    def backward(g):
        g_cat, g_os = 0.0, []
        for o, w, wg, pr, gt in zip(xs, W, Wg, proj, gates):
            g_gate = (g * pr).sum(axis=1, keepdims=True) * gt * (1.0 - gt)
            g_cat = g_cat + g_gate @ wg.value       # audio, then language, then video
            if wg.requires_grad:
                wg.grad += (cat.T @ g_gate).T
            g_pr = g * gt * (1.0 - pr * pr)
            if w.requires_grad:
                w.grad += (o.value.T @ g_pr).T
            g_os.append(g_pr @ w.value)
        # the tape adds the audio and language projection terms, then the
        # concatenation's slices, then the video projection term
        for o, term in [*zip(xs[:2], g_os), *zip(xs, np.split(g_cat, 3, axis=1)),
                        (xs[2], g_os[2])]:
            if o.requires_grad:
                o.grad += term

    o_mm = Node(contributions[0] + contributions[1] + contributions[2], (*xs, *W, *Wg),
                op="gmu", backward=backward)
    leaves = lambda arrays: dict(zip(GMU_ORDER, map(ad.constant, arrays)))
    return o_mm, leaves(gates), leaves(contributions)


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
    return ad.l2([node for name, node in sorted(params.items()) if not is_bias(name)], coeff)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds it."""
    if max_norm <= 0:
        raise ValueError(f"clip_gradients: max_norm must be positive, got {max_norm}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}
