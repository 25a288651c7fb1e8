"""Span tracer for the traced benchmark run.

The tracer wraps public names of the msast modules from outside: it
replaces module attributes (and `Tensor.backward`) with wrappers that
record one span per call, and wraps the backward closure of every tape
node an op returns. msast's own source is untouched, and with tracing
disabled a wrapper costs one attribute test per call.

A name that a later version of msast no longer has is recorded as absent;
the metrics derived from it are left out of the result instead of failing
the run.

A span is (name, start, end, parent span, request id). Spans are kept in
memory as flat arrays and written out once, when the run ends.
"""

import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

OP_GROUPS = {
    "matmul": ("matmul",),
    "dilated_conv1d": ("dilated_conv1d",),
    "temporal_norm": ("temporal_norm",),
    "softmax_rows": ("softmax_rows",),
    "relu": ("relu",),
    "dropout": ("dropout",),
    "elementwise": ("add", "mul", "scale", "concat_channels"),
}
ATTENTION_KERNELS = (3, 5, 17)
ATTENTION_LAYERS = tuple(range(1, 11))

# (span name, module, attribute) of the calls above the ops that get one span each
CALL_SPANS = (
    ("model.forward_full", "model", "forward_full"),
    ("model.forward_full", "training", "forward_full"),
    ("model.predict", "model", "predict"),
    ("model.forward_stream", "model", "forward_stream"),
    ("training.total_loss", "training", "total_loss"),
    ("training.adam_step", "training", "adam_step"),
    ("training.save_checkpoint", "training", "save_checkpoint"),
    ("training.load_checkpoint", "training", "load_checkpoint"),
    ("data.generate_synthetic", "data", "generate_synthetic"),
    ("data.write_dataset", "data", "write_dataset"),
    ("data.read_feature_file", "data", "read_feature_file"),
    ("metrics.evaluate_video", "metrics", "evaluate_video"),
    ("metrics.aggregate", "metrics", "aggregate"),
)
LAYERS = ("numerics", "attention", "model", "training", "data", "metrics")


class Tracer:
    """In-memory span recorder; `enabled` switches recording on and off."""

    def __init__(self):
        self.enabled = False
        self.absent = set()
        self.counts = defaultdict(float)
        self.names: list[str] = []
        self.requests: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._request_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open = [-1]
        self._current_request = 0
        self.request = "setup"

    @property
    def request(self) -> str:
        return self.requests[self._current_request]

    @request.setter
    def request(self, request_id: str):
        self._current_request = self._intern(request_id, self.requests, self._request_ids)

    @staticmethod
    def _intern(key, table, ids) -> int:
        idx = ids.get(key)
        if idx is None:
            idx = ids[key] = len(table)
            table.append(key)
        return idx

    def __len__(self) -> int:
        return len(self._start)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self._start)
        self._name.append(self._intern(name, self.names, self._name_ids))
        self._parent.append(self._open[-1])
        self._request.append(self._current_request)
        self._start.append(0.0)
        self._end.append(0.0)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[idx] = time.perf_counter()
            self._start[idx] = start
            self._open.pop()

    def wrap(self, module, attr: str, span_name, after=None):
        """Replace `module.attr` by a recording wrapper.

        `span_name` is a string or a function (args, kwargs) -> name;
        `after(name, args, kwargs, result)` runs outside the span to add counts.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.add(f"{module.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            name = span_name(args, kwargs) if callable(span_name) else span_name
            result = self.span(name, orig, *args, **kwargs)
            if after is not None:
                after(name, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def time_backward(self, node, args, name: str):
        """Record a span each time `node`'s backward closure runs.

        The closure is called with its argument unchanged. Nodes that are
        one of the op's own inputs (identity ops) are left alone.
        """
        backward = getattr(node, "_backward", None)
        if backward is None or any(node is a for a in args):
            return

        def timed(g):
            if not self.enabled:
                return backward(g)
            return self.span(name, backward, g)

        node._backward = timed

    def aggregate(self) -> dict[str, tuple[float, float, int]]:
        """name -> (total seconds, self seconds, calls).

        Self time is a span's duration minus the durations of its direct
        children; children never outlive their parent.
        """
        if not len(self):
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        total = np.bincount(name, weights=dur, minlength=k)
        self_total = np.bincount(name, weights=own, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {n: (float(total[i]), float(self_total[i]), int(calls[i]))
                for i, n in enumerate(self.names)}

    def write(self, path):
        """Write every span to `path` (.npz): columns plus name/request tables."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            request=np.frombuffer(self._request, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
            names=np.array(self.names, dtype=str),
            requests=np.array(self.requests, dtype=str),
        )


def _graph_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _band_pairs(T: int, window: int, causal: bool) -> int:
    """Admissible (query, key) pairs of a sliding window over T frames."""
    t = np.arange(T)
    if causal:
        return int(np.minimum(t + 1, window).sum())
    half = window // 2
    return int((np.minimum(t + half, T - 1) - np.maximum(t - half, 0) + 1).sum())


def install(tracer: Tracer, msast) -> Tracer:
    """Wrap the public entry points of every msast layer."""
    nx = msast.numerics
    counts = tracer.counts

    def op_after(group):
        def after(name, args, kwargs, result):
            out = result[0] if isinstance(result, tuple) else result
            data = getattr(out, "data", None)
            if data is not None:
                counts[f"numerics.{group}.out_bytes"] += data.nbytes
            if group == "matmul":
                (m, k), n = args[0].data.shape, args[1].data.shape[1]
                counts["numerics.matmul.flops"] += 2 * m * k * n
            elif group == "dilated_conv1d":
                T = args[0].data.shape[0]
                K, cin, cout = args[1].data.shape
                counts["numerics.dilated_conv1d.flops"] += 2 * T * K * cin * cout
            tracer.time_backward(out, args, name[:-len("fwd")] + "bwd")
        return after

    for group, ops in OP_GROUPS.items():
        for op in ops:
            tracer.wrap(nx, op, f"numerics.{op}.fwd", op_after(group))

    def attention_spec(args, kwargs):
        return args[3] if len(args) > 3 else kwargs["spec"]

    def attention_name(args, kwargs):
        spec = attention_spec(args, kwargs)
        return f"attention.k{spec.kernel_size}.l{spec.layer_index}.fwd"

    def attention_after(name, args, kwargs, result):
        q, spec = args[0], attention_spec(args, kwargs)
        T, C = q.data.shape
        counts["attention.flops"] += 4 * C * _band_pairs(T, spec.window_size, spec.causal)
        tracer.time_backward(result, args, name[:-len("fwd")] + "bwd")

    tracer.wrap(msast.model, "sliding_window_attention", attention_name, attention_after)

    def state_frames(name, args, kwargs, result):
        counts["model.stream_state_frames"] = max(counts["model.stream_state_frames"], len(args[2]))

    def checkpoint_bytes(name, args, kwargs, result):
        counts["training.checkpoint_bytes"] += os.path.getsize(args[2])

    def read_bytes(name, args, kwargs, result):
        counts["data.read_bytes"] += os.path.getsize(args[0])

    after = {"model.forward_stream": state_frames, "training.save_checkpoint": checkpoint_bytes,
             "data.read_feature_file": read_bytes}
    for span_name, module, attr in CALL_SPANS:
        tracer.wrap(getattr(msast, module), attr, span_name, after.get(span_name))

    tensor = getattr(nx, "Tensor", None)
    if tensor is None or not hasattr(tensor, "backward"):
        tracer.absent.add("msast.numerics.Tensor.backward")
        return tracer
    orig_backward = tensor.backward

    @functools.wraps(orig_backward)
    def backward(node):
        if not tracer.enabled:
            return orig_backward(node)
        counts["numerics.tape.nodes"] += _graph_size(node)
        return tracer.span("numerics.tape.backward", orig_backward, node)

    tensor.backward = backward
    return tracer


_DERIVED = {"model.stream_state_frames": "model.forward_stream",
            "training.checkpoint_bytes": "training.save_checkpoint",
            "data.read_bytes": "data.read_feature_file"}


def _sources(metric: str) -> tuple[str, ...]:
    """Wrapped names a per-layer metric is derived from (empty: always present)."""
    layer, rest = metric.split(".", 1)
    if layer == "numerics":
        group = rest.split(".")[0]
        if group == "tape":
            return ("msast.numerics.Tensor.backward",)
        return tuple(f"msast.numerics.{op}" for op in OP_GROUPS.get(group, ()))
    if layer == "attention":
        return ("msast.model.sliding_window_attention",)
    span = _DERIVED.get(metric, metric.removesuffix("_s"))
    return tuple(f"msast.{m}.{a}" for s, m, a in CALL_SPANS if s == span)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from the recorded spans.

    A metric whose every source name is absent is left out.
    """
    agg = tracer.aggregate()

    def total(pred, field=0):
        return sum(v[field] for n, v in agg.items() if pred(n))

    out = {}
    for group, ops in OP_GROUPS.items():
        fwd = {f"numerics.{op}.fwd" for op in ops}
        bwd = {f"numerics.{op}.bwd" for op in ops}
        out[f"numerics.{group}.fwd_s"] = (total(fwd.__contains__), "s")
        out[f"numerics.{group}.bwd_s"] = (total(bwd.__contains__), "s")
        out[f"numerics.{group}.calls"] = (total(fwd.__contains__, 2), "count")
        out[f"numerics.{group}.out_bytes"] = (tracer.counts[f"numerics.{group}.out_bytes"], "B")
    out["numerics.matmul.flops"] = (tracer.counts["numerics.matmul.flops"], "flop")
    out["numerics.dilated_conv1d.flops"] = (tracer.counts["numerics.dilated_conv1d.flops"], "flop")
    tape = agg.get("numerics.tape.backward", (0.0, 0.0, 0))
    out["numerics.tape.backward_s"] = (tape[0], "s")
    out["numerics.tape.self_s"] = (tape[1], "s")
    out["numerics.tape.nodes"] = (tracer.counts["numerics.tape.nodes"], "count")

    def attn(direction, tag=""):
        return lambda n: n.startswith("attention.") and n.endswith(direction) and tag in n

    out["attention.fwd_s"] = (total(attn(".fwd")), "s")
    out["attention.bwd_s"] = (total(attn(".bwd")), "s")
    out["attention.calls"] = (total(attn(".fwd"), 2), "count")
    out["attention.flops"] = (tracer.counts["attention.flops"], "flop")
    for k in ATTENTION_KERNELS:
        for d in ("fwd", "bwd"):
            out[f"attention.k{k}.{d}_s"] = (total(attn(f".{d}", f".k{k}.")), "s")
    for layer in ATTENTION_LAYERS:
        for d in ("fwd", "bwd"):
            out[f"attention.l{layer}.{d}_s"] = (total(attn(f".{d}", f".l{layer}.")), "s")

    for span_name in dict.fromkeys(s for s, _, _ in CALL_SPANS):
        out[f"{span_name}_s"] = (agg.get(span_name, (0.0,))[0], "s")
    out["model.stream_state_frames"] = (tracer.counts["model.stream_state_frames"], "frames")
    out["training.checkpoint_bytes"] = (tracer.counts["training.checkpoint_bytes"], "B")
    out["data.read_bytes"] = (tracer.counts["data.read_bytes"], "B")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total(lambda n: n.startswith(layer + "."), 1), "s")

    def present(metric):
        sources = _sources(metric)
        return not sources or not all(s in tracer.absent for s in sources)

    return {m: v for m, v in out.items() if present(m)}
