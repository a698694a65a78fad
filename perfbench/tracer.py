"""Spans around fairavi's public functions, recorded from outside the package.

``Tracer.install`` rebinds every name under which a listed function is
reachable in a loaded ``fairavi`` module, so each function is wrapped under
the name it is called by (``fairavi.training.predict`` and
``fairavi.cli.predict`` are separate bindings of ``fairavi.model.predict``),
and wraps the listed methods on their class.  ``uninstall`` restores them.

Spans are recorded only while an operation is open (``Tracer.op``).  Each
span holds its name, start, end, parent span, operation index and thread.
A thread with no open span (a sweep worker) takes the innermost open span of
the thread that opened the operation as its parent, so concurrent spans nest
under the call that started them.  Autodiff nodes a layer call creates are
tagged with that call's span: the time of their backward rules is added to
the span, so a layer reports forward plus backward time per call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

perf = time.perf_counter


class Span:
    """One timed call.  ``bwd`` accumulates the backward-rule seconds of the
    nodes the call created; ``bwd_hit`` says whether any of them ran."""

    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread",
                 "tag", "size", "nodes", "bwd", "bwd_hit", "ref")

    def __init__(self, span_id, name, start, parent, op, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.tag = None      # modality, "trunk", "fired", or the variant's phase epochs
        self.size = None     # batch size of the call, where it has one
        self.nodes = None    # exact tape node count, where one is taken
        self.bwd = 0.0
        self.bwd_hit = False
        # not written out: a forward_base call's model; during a layer call
        # inside a forward_base, that forward_base's span
        self.ref = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, self_time: float) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "thread": self.thread,
                "self": self_time, "bwd": self.bwd, "tag": self.tag,
                "size": self.size, "nodes": self.nodes}


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children may come from several threads and overlap; each child interval
    is clipped to its parent's before the union is taken.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo_run, hi_run = 0.0, None, None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = s.duration - covered
    return out


class _TimedBackward:
    """Replaces a node's backward rule and charges its time to a span."""

    __slots__ = ("fn", "span")

    def __init__(self, fn, span):
        self.fn = fn
        self.span = span

    def __call__(self, g):
        t0 = perf()
        self.fn(g)
        span = self.span
        span.bwd += perf() - t0
        span.bwd_hit = True


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: list | None = None
        self._op: int | None = None
        self._installed: list = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._root:
            parent = self._root[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, perf(), parent, self._op, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End `span`, and any span an exception left open above it."""
        end = perf()
        stack = self._stack()
        while stack:
            top = stack.pop()
            top.end = end
            self.spans.append(top)
            if top is span:
                return
        span.end = end
        self.spans.append(span)

    def parent_of(self, span: Span) -> Span | None:
        stack = self._stack()
        return stack[-2] if len(stack) >= 2 and stack[-1] is span else None

    @contextmanager
    def op(self, index: int):
        """Record spans for one operation of the workload."""
        self._op = index
        span = self.open("op")
        self._root = self._stack()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.close(span)
            self._root = None
            self._op = None

    # --------------------------------------------------------- wrapping

    def _wrapper(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                if before is not None:
                    args, kwargs = before(tracer, span, args, kwargs)
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target; call uninstall() to restore the originals."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        for module_name, *_ in targets:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fairavi" or n.startswith("fairavi.")]
        for module_name, qualname, span_name, before, after in targets:
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, self._wrapper(original, span_name, before, after))
                continue
            original = getattr(owner, qualname)
            wrapped = self._wrapper(original, span_name, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapped)

    def _rebind(self, holder, attr, wrapped) -> None:
        self._installed.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed = []

    # ---------------------------------------------------------- output

    def records(self) -> list[dict]:
        own = self_times(self.spans)
        return [s.to_dict(own[s.id]) for s in sorted(self.spans, key=lambda s: s.start)]


# ------------------------------------------------------------------ hooks

def _first_node_size(args):
    from fairavi.autodiff import Node
    for a in args:
        if isinstance(a, Node):
            return a.value.shape[0] if a.value.ndim else None
    return None


def _enclosing_forward(tracer, span):
    parent = tracer.parent_of(span)
    return parent if parent is not None and parent.name == "model.forward_base" else None


def _layer_before(tracer, span, args, kwargs):
    span.size = _first_node_size(args)
    span.ref = _enclosing_forward(tracer, span)   # claim nodes only if it trains
    return args, kwargs


def _bigru_before(tracer, span, args, kwargs):
    args, kwargs = _layer_before(tracer, span, args, kwargs)
    fwd = span.ref
    if fwd is not None:
        for modality, (gru_fwd, _) in fwd.ref.encoders.items():
            if gru_fwd is args[0]:
                span.tag = modality
    return args, kwargs


def _claim(tracer, span, args, kwargs, out):
    """Charge the backward rules of the nodes this call created to `span`.

    The walk starts at the returned nodes and stops at argument nodes,
    leaves and nodes an inner call already claimed.
    """
    enclosing = span.ref
    span.ref = None
    if enclosing is not None and enclosing.tag != "train":
        return
    from fairavi.autodiff import Node
    stop = {id(a) for a in args if isinstance(a, Node)}
    work = _nodes_in(out)
    seen = set()
    while work:
        node = work.pop()
        key = id(node)
        if key in seen or key in stop or not node.parents or not node.requires_grad:
            continue
        seen.add(key)
        rule = node._backward
        if rule is None or isinstance(rule, _TimedBackward):
            continue
        node._backward = _TimedBackward(rule, span)
        work.extend(node.parents)


def _nodes_in(value, depth: int = 3) -> list:
    from fairavi.autodiff import Node
    if isinstance(value, Node):
        return [value]
    if depth == 0 or value is None:
        return []
    if isinstance(value, (tuple, list)):
        items = value
    elif isinstance(value, dict):
        items = value.values()
    elif hasattr(value, "__dataclass_fields__"):
        items = [getattr(value, f) for f in value.__dataclass_fields__]
    else:
        return []
    return [n for v in items for n in _nodes_in(v, depth - 1)]


def _forward_before(tracer, span, args, kwargs):
    model, batch = args[0], args[1]
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    span.ref = model
    span.tag = "train" if training else "eval"
    span.size = next(iter(batch.values())).shape[0] if batch else None
    if training:
        tracer._local.pending_trunk = True
    return args, kwargs


def _forward_after(tracer, span, args, kwargs, out):
    parent = tracer._stack()[-1] if tracer._stack() else None
    if span.tag == "eval" and parent is not None and parent.name == "model.predict":
        from fairavi.autodiff import topo_order
        span.nodes = len(topo_order(out.y_hat))
    span.ref = None
    if span.tag == "train":
        _claim(tracer, span, (), {}, out)


def _backward_before(tracer, span, args, kwargs):
    if getattr(tracer._local, "pending_trunk", False):
        span.tag = "trunk"
        tracer._local.pending_trunk = False
    return args, kwargs


def _backward_after(tracer, span, args, kwargs, out):
    from fairavi.autodiff import topo_order
    span.nodes = len(topo_order(args[0]))


def _clip_after(tracer, span, args, kwargs, out):
    span.tag = "fired" if out is not args[0] else "kept"


def _train_before(tracer, span, args, kwargs):
    inner = kwargs.pop("observer", None)
    if len(args) > 3:
        args, inner = args[:3], args[3]

    def observer(event, payload):
        if tracer.active and event == "phase_start":
            tracer.open("training.phase." + payload["phase"])
        elif tracer.active and event == "phase_end":
            stack = tracer._stack()
            if stack and stack[-1].name == "training.phase." + payload["phase"]:
                tracer.close(stack[-1])
        if inner is not None:
            inner(event, payload)

    kwargs["observer"] = observer
    return args, kwargs


def _train_after(tracer, span, args, kwargs, out):
    _, log = out
    epochs: dict = {}
    for phase in log.phases():
        epochs[phase] = epochs.get(phase, 0) + 1
    span.tag = epochs


def _targets():
    """(module, function or Class.method, span name, before, after)."""
    layer = (_layer_before, _claim)
    return [
        ("fairavi.autodiff", "backward", "autodiff.backward", _backward_before, _backward_after),
        ("fairavi.layers", "bigru_encode", "layers.bigru", _bigru_before, _claim),
        ("fairavi.layers", "attention_pool", "layers.attention", *layer),
        ("fairavi.layers", "gmu_fuse", "layers.gmu", *layer),
        ("fairavi.layers", "dense_forward", "layers.dense", *layer),
        ("fairavi.layers", "l2_penalty", "layers.l2_penalty", *layer),
        ("fairavi.layers", "clip_gradients", "layers.clip", None, _clip_after),
        ("fairavi.model", "HireabilityModel.forward_base", "model.forward_base",
         _forward_before, _forward_after),
        ("fairavi.model", "HireabilityModel.head_supervised", "model.head.supervised", *layer),
        ("fairavi.model", "HireabilityModel.head_static_faces", "model.head.static_faces",
         *layer),
        ("fairavi.model", "HireabilityModel.head_negative_sampling",
         "model.head.negative_sampling", *layer),
        ("fairavi.model", "predict", "model.predict", None, None),
        ("fairavi.model", "modality_contributions", "model.modality_contributions", None, None),
        ("fairavi.model", "save_model", "model.save_model", None, None),
        ("fairavi.model", "load_model", "model.load_model", None, None),
        ("fairavi.training", "bce_loss", "training.loss.bce", *layer),
        ("fairavi.training", "mse_face_loss", "training.loss.mse", *layer),
        ("fairavi.training", "ns_loss", "training.loss.ns", *layer),
        ("fairavi.training", "Adam.step", "training.adam_step", None, None),
        ("fairavi.training", "train_alternating", "training.train_alternating",
         _train_before, _train_after),
        ("fairavi.data", "load_jsonl", "data.load", None, None),
        ("fairavi.data", "fit_compressor", "data.fit_compressor", None, None),
        ("fairavi.evaluation", "extract_representations", "evaluation.extract", None, None),
        ("fairavi.evaluation", "fit_probe", "evaluation.fit_probe", None, None),
        ("fairavi.evaluation", "diagnose", "evaluation.diagnose", None, None),
        ("fairavi.evaluation", "auc", "evaluation.auc", None, None),
        ("fairavi.cli", "main", "cli.main", None, None),
        ("fairavi.cli", "run_training", "cli.run_training", None, None),
        ("fairavi.cli", "build_report", "cli.build_report", None, None),
    ]


# ---------------------------------------------------------------- metrics

MODALITIES = ("language", "audio", "video")
HEADS = ("supervised", "static_faces", "negative_sampling")
LOSSES = ("bce", "mse", "ns")
PHASES = ("pretrain-main", "pretrain-adv", "joint", "adv-refit")


def _charged(spans) -> list:
    """The calls a layer figure describes: those whose nodes were
    back-propagated when there are any (training steps), otherwise the
    calls at the largest batch size seen (full inference chunks)."""
    hit = [s for s in spans if s.bwd_hit]
    if hit:
        return hit
    sizes = [s.size for s in spans if s.size is not None]
    if sizes:
        return [s for s in spans if s.size == max(sizes)]
    return list(spans)


def layer_metrics(spans, rounds: int) -> tuple[dict, dict]:
    """Per-layer figures from the spans of `rounds` operations.

    Returns (values, sources): sources counts the spans behind each value.
    A layer that did not run reports 0 from 0 spans.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    values, sources = {}, {}

    def put(metric, chosen, fn):
        chosen = list(chosen)
        sources[metric] = len(chosen)
        values[metric] = fn(chosen) if chosen else 0

    def fwd_bwd_ms(chosen):
        return statistics.median(s.duration + s.bwd for s in chosen) * 1e3

    def median_of(attr, scale=1.0):
        return lambda chosen: statistics.median(getattr(s, attr) for s in chosen) * scale

    def per_round(chosen):
        return sum(s.duration for s in chosen) / rounds

    named = lambda name: by_name.get(name, [])
    trunk = [s for s in named("autodiff.backward") if s.tag == "trunk"]
    put("autodiff.nodes_per_step", trunk, lambda c: statistics.median_low(s.nodes for s in c))
    put("autodiff.backward_ms", trunk, median_of("duration", 1e3))
    chunks = [s for s in named("model.forward_base") if s.nodes is not None]
    put("autodiff.nodes_per_chunk", chunks, lambda c: statistics.median_low(s.nodes for s in c))
    for m in MODALITIES:
        put(f"layers.bigru_ms.{m}",
            _charged([s for s in named("layers.bigru") if s.tag == m]), fwd_bwd_ms)
    for metric, name in (("attention_ms", "attention"), ("gmu_ms", "gmu"),
                         ("dense_ms", "dense"), ("l2_penalty_ms", "l2_penalty")):
        put(f"layers.{metric}", _charged(named(f"layers.{name}")), fwd_bwd_ms)
    clips = named("layers.clip")
    put("layers.clip_ms", clips, median_of("duration", 1e3))
    put("layers.clip_fired_frac", clips,
        lambda c: sum(s.tag == "fired" for s in c) / len(c))
    put("model.forward_base_self_ms", _charged(named("model.forward_base")),
        lambda c: statistics.median(own[s.id] for s in c) * 1e3)
    for head in HEADS:
        put(f"model.head_ms.{head}", _charged(named(f"model.head.{head}")), fwd_bwd_ms)
    predicts = named("model.predict")
    put("model.predict_calls", predicts, lambda c: len(c) / rounds)
    put("model.predict_s", predicts, per_round)
    for loss in LOSSES:
        put(f"training.loss_ms.{loss}", _charged(named(f"training.loss.{loss}")), fwd_bwd_ms)
    put("training.adam_step_ms", named("training.adam_step"), median_of("duration", 1e3))
    runs = [s for s in named("training.train_alternating") if isinstance(s.tag, dict)]
    for phase in PHASES:
        put(f"training.phase_s.{phase}", named(f"training.phase.{phase}"), per_round)
        put(f"training.epochs.{phase}", [s for s in runs if phase in s.tag],
            lambda c, p=phase: sum(s.tag[p] for s in c) / rounds)
    put("data.load_s", named("data.load"), median_of("duration"))
    put("data.fit_compressor_s", named("data.fit_compressor"), median_of("duration"))
    put("evaluation.extract_s", named("evaluation.extract"), median_of("duration"))
    put("evaluation.fit_probe_s", named("evaluation.fit_probe"), median_of("duration"))
    put("evaluation.diagnose_self_s", named("evaluation.diagnose"),
        lambda c: statistics.median(own[s.id] for s in c))
    put("evaluation.auc_ms", named("evaluation.auc"), median_of("duration", 1e3))
    put("cli.run_training_s", named("cli.run_training"), median_of("duration"))
    put("trace.spans_per_op", spans, lambda c: len(c) / rounds)
    return values, sources
