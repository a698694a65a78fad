"""Reverse-mode automatic differentiation over dense float64 arrays.

A dynamic tape is built implicitly: every operation returns a ``Node``
holding its value, a zero-initialized gradient buffer, links to its
parents and a backward rule.  ``backward`` walks the tape in reverse
topological order.  Gradients accumulate; call ``zero_grad`` between
optimizer steps.

Inside ``with no_tape():`` nothing is recorded: a node keeps its value
but no parents and no backward rule, so the arrays a backward would read
die with the op that made them.  Inference runs this way.  The mode is a
``contextvars.ContextVar``, so it holds only for the thread (or context)
that entered it: another thread keeps recording.

The op set covers what the network needs: the affine map ``linear``,
(broadcast) add, subtract, Hadamard product, tanh, sigmoid, softmax over
the last axis, log, clip, sum, mean, slicing, reshape, the L2 penalty
``l2`` and the gradient reversal node ``grl``.  ``logistic`` is the one
value-level logistic function: ``sigmoid``, the fused GMU gates, the data
generator and the probes all compute it.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

import numpy as np

_recording = contextvars.ContextVar("fairavi_autodiff_recording", default=True)


class ShapeMismatch(ValueError):
    """Operand shapes do not conform to an op's shape rule."""


class GradCheckError(RuntimeError):
    """A non-finite value was met while finite-differencing."""


class Node:
    """One entry of the differentiation tape.

    value         -- float64 ndarray
    grad          -- same-shape accumulation buffer, zero-initialized
                     (allocated on first touch)
    parents       -- upstream Nodes (none for a node built under no_tape)
    requires_grad -- True for trainable leaves and anything recorded on them
    op            -- name of the producing op ("leaf" for inputs)
    """

    __slots__ = ("value", "_grad", "parents", "requires_grad", "op", "_backward")

    def __init__(self, value, parents=(), requires_grad=False, op="leaf", backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None
        self.op = op
        if not _recording.get():
            self.parents, self.requires_grad, self._backward = (), bool(requires_grad), None
            return
        self.parents = parents if type(parents) is tuple else tuple(parents)
        self.requires_grad = bool(requires_grad) or any([p.requires_grad for p in self.parents])
        self._backward = backward

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, v):
        self._grad = v

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


@contextmanager
def no_tape():
    """Record no tape in this block: nodes keep values, not parents or rules."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def constant(x) -> Node:
    """Wrap an array as a non-trainable leaf."""
    return x if isinstance(x, Node) else Node(x)


def parameter(x) -> Node:
    """Wrap an array as a trainable leaf."""
    return Node(x, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _combine(op, a, b):
    """Apply a numpy ufunc, rewriting broadcast failures as ShapeMismatch."""
    try:
        return op(a.value, b.value)
    except ValueError:
        raise ShapeMismatch(
            f"{op.__name__}: shapes {a.value.shape} and {b.value.shape} do not broadcast")


# ---------------------------------------------------------------- binary ops

def add(a, b) -> Node:
    a, b = constant(a), constant(b)

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.value.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.value.shape)

    return Node(_combine(np.add, a, b), (a, b), op="add", backward=backward)


def sub(a, b) -> Node:
    a, b = constant(a), constant(b)

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.value.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g, b.value.shape)

    return Node(_combine(np.subtract, a, b), (a, b), op="sub", backward=backward)


def mul(a, b) -> Node:
    """Hadamard (elementwise, broadcasting) product."""
    a, b = constant(a), constant(b)

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.value, a.value.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.value, b.value.shape)

    return Node(_combine(np.multiply, a, b), (a, b), op="mul", backward=backward)


def linear(x, W, b=None) -> Node:
    """x @ W.T (+ b) for a 2-D batch x and a weight W stored [out, in]."""
    x, W = constant(x), constant(W)
    if x.value.ndim != 2 or W.value.ndim != 2 or x.value.shape[1] != W.value.shape[1]:
        raise ShapeMismatch(f"linear: input {x.value.shape} does not fit weight {W.value.shape}")
    value = x.value @ W.value.T
    if b is not None:
        b = constant(b)
        if b.value.shape != (W.value.shape[0],):
            raise ShapeMismatch(f"linear: bias {b.value.shape} does not fit weight "
                                f"{W.value.shape}")
        value = value + b.value

    def backward(g):
        if b is not None and b.requires_grad:
            b.grad += _unbroadcast(g, b.value.shape)
        if x.requires_grad:
            x.grad += g @ W.value
        if W.requires_grad:
            W.grad += (x.value.T @ g).T

    parents = (x, W) if b is None else (x, W, b)
    return Node(value, parents, op="linear", backward=backward)


# --------------------------------------------------------------- unary ops

def _unary(a: Node, value, local, op: str) -> Node:
    """A node with the single parent `a` whose backward adds local(g) to a.grad.

    The rule runs without a requires_grad check on `a`: backward() only
    calls the rule of a node that requires grad, and a one-parent node
    requires grad exactly when its parent does.
    """
    def backward(g):
        a.grad += local(g)

    return Node(value, (a,), op=op, backward=backward)


def neg(a) -> Node:
    a = constant(a)
    return _unary(a, -a.value, lambda g: -g, op="neg")


def tanh(a) -> Node:
    a = constant(a)
    y = np.tanh(a.value)
    return _unary(a, y, lambda g: g * (1.0 - y * y), op="tanh")


def logistic(x):
    """1 / (1 + exp(-x)) of an array; exp overflow on the far-negative tail
    yields inf, so the value there is exactly 0.0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Node:
    a = constant(a)
    y = logistic(a.value)
    return _unary(a, y, lambda g: g * y * (1.0 - y), op="sigmoid")


def log(a) -> Node:
    a = constant(a)
    return _unary(a, np.log(a.value), lambda g: g / a.value, op="log")


def clip(a, lo: float, hi: float) -> Node:
    """Clamp values to [lo, hi]; gradient passes only where unclamped."""
    a = constant(a)
    mask = (a.value >= lo) & (a.value <= hi)
    return _unary(a, np.clip(a.value, lo, hi), lambda g: g * mask, op="clip")


def softmax(a) -> Node:
    """Softmax over the last axis."""
    a = constant(a)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return _unary(a, y, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True)),
                  op="softmax")


# ------------------------------------------------------------ shape ops

def reshape(a, shape) -> Node:
    a = constant(a)
    return _unary(a, a.value.reshape(shape), lambda g: g.reshape(a.value.shape), op="reshape")


def slice_(a, idx) -> Node:
    a = constant(a)

    def backward(g):   # one parent: runs only when a requires grad
        np.add.at(a.grad, idx, g)   # sums the terms of repeated elements

    return Node(a.value[idx], (a,), op="slice", backward=backward)


# --------------------------------------------------------------- reductions

def sum_(a, axis=None, keepdims: bool = False) -> Node:
    a = constant(a)
    return _unary(a, a.value.sum(axis=axis, keepdims=keepdims),
                  lambda g: _spread(g, a.value.shape, axis, keepdims), op="sum")


def mean(a, axis=None, keepdims: bool = False) -> Node:
    a = constant(a)
    count = a.value.size if axis is None else np.prod(
        [a.value.shape[ax] for ax in np.atleast_1d(axis)])
    return _unary(a, a.value.mean(axis=axis, keepdims=keepdims),
                  lambda g: _spread(g, a.value.shape, axis, keepdims) / count, op="mean")


def _spread(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        g = np.expand_dims(g, tuple(np.atleast_1d(axis)))
    return np.broadcast_to(g, shape)


# ------------------------------------------------------------ penalties

def l2(weights, coeff: float) -> Node:
    """coeff * the sum, in order, of each weight's sum of squared entries."""
    weights = tuple(weights)
    total = np.float64(0.0)
    for w in weights:
        total = total + (w.value * w.value).sum()

    def backward(g):
        gc = g * coeff
        for w in weights:
            if w.requires_grad:   # twice, as d(w*w) reaches both factors
                w.grad += gc * w.value
                w.grad += gc * w.value

    return Node(total * coeff, weights, op="l2", backward=backward)


# ------------------------------------------------------- gradient reversal

def grl(a, lam: float) -> Node:
    """Gradient reversal: identity forward, -lam * upstream backward."""
    if lam < 0:
        raise ValueError(f"grl: lambda must be nonnegative, got {lam}")
    a = constant(a)
    return _unary(a, a.value, lambda g: (-lam) * g, op="grl")


# ----------------------------------------------------------------- backward

def topo_order(root: Node) -> list[Node]:
    """All reachable nodes, parents before children."""
    order, seen, work = [], set(), [(root, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            work.append((node, True))
            work.extend([(p, False) for p in node.parents if p not in seen])
    return order


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into leaf .grad buffers.

    Interior-node gradients are scratch state of one pass and are reset
    here; leaf gradients accumulate across calls until zero_grad.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    order = topo_order(loss)
    for node in order:
        if node.parents:
            node._grad = None
    loss.grad += np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is not None and node.requires_grad:
            node._backward(node.grad)


def zero_grad(nodes) -> None:
    for n in nodes:
        n.zero_grad()


# -------------------------------------------------------------- grad check

def grad_check(fn, point, h: float = 1e-5) -> float:
    """grad_check_params over fresh parameter leaves holding copies of `point`.

    fn maps a list of Nodes (one per array in `point`) to a scalar Node;
    parameters are named by their position in `point`.
    """
    leaves = [parameter(np.array(p, dtype=np.float64)) for p in point]
    return grad_check_params(lambda: fn(leaves), dict(enumerate(leaves)), h)


def grad_check_params(loss_fn, params: dict, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    of a live parameter dict, perturbing values in place.

    loss_fn() must rebuild the graph from the current parameter values and
    return a scalar Node.  Relative error per coordinate is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    for p in params.values():
        p.zero_grad()
    backward(loss_fn())
    analytic = {n: p.grad.copy() for n, p in params.items()}
    worst = 0.0
    for name, p in params.items():
        flat = p.value.ravel()
        for ci in range(flat.size):
            old = flat[ci]
            flat[ci] = old + h
            f_plus = float(np.asarray(loss_fn().value).reshape(()))
            flat[ci] = old - h
            f_minus = float(np.asarray(loss_fn().value).reshape(()))
            flat[ci] = old
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic_c = analytic[name].ravel()[ci]
            if not (np.isfinite(numeric) and np.isfinite(analytic_c)):
                raise GradCheckError(
                    f"non-finite value at parameter {name}, coordinate {ci}: "
                    f"analytic={analytic_c}, numeric={numeric}")
            err = abs(analytic_c - numeric) / max(1e-8, abs(analytic_c) + abs(numeric))
            worst = max(worst, err)
    return worst
