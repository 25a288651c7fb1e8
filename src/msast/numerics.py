"""Dense-matrix kernels with exact analytic backward passes.

Everything is built on 2-D (or 1-D for biases, 0-D for scalars) numpy
arrays wrapped in a minimal reverse-mode tape. Production paths run in
float32; gradient verification re-runs the same ops in float64 (ops are
dtype-generic and never upcast silently). All ops are pure given explicit
RNG state. Grad mode is per thread, so threads may infer beside training;
parameters are shared, so two threads must not train one model at once.
`_saved` is the one place the tape keeps anything for backward, read back
through `_value`, so `pack_hook` sees each kept array with its op.
"""

import contextlib
import contextvars

import numpy as np

from .errors import ConfigError, ShapeError

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)
_pack = contextvars.ContextVar("pack_hook", default=None)


@contextlib.contextmanager
def no_grad():
    """Disable tape construction in this thread inside the block (inference)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


@contextlib.contextmanager
def pack_hook(hook):
    """In this thread, inside the block, `_saved` calls `hook(value, op, kept)`
    with the Tensor or array an op keeps, the op's name and what it would
    keep, and keeps what the hook returns: `kept`, or an array equal to it.
    A None hook is no hook."""
    token = _pack.set(hook)
    try:
        yield
    finally:
        _pack.reset(token)


class _Node:
    """A tracked tensor's place on the tape: its accumulated adjoint, its
    backward closure and its tracked inputs' nodes, but no forward value.

    A node may also hold a re-former: a zero-argument function that rebuilds
    the node's forward value from arrays the tape keeps anyway, with the
    forward's own operations in the forward's order, so the rebuilt value is
    bit-identical; a matmul output runs its GEMM again on the same operands,
    and a conv output its tap loop on the same input and weights.
    A consumer whose closure reads the value keeps the node instead, as
    `_saved` decides; backward rebuilds the value at most once, on first read
    (`value`), and drops it when the node is released. Re-formers read
    parameter arrays, so parameters must not be mutated between forward and
    backward, the same assumption every closure that captures `w.data` makes.
    """

    __slots__ = ("grad", "_backward", "_parents", "_reform", "_value")

    def __init__(self, parents, backward):
        self.grad = None
        self._parents = parents
        self._backward = backward
        self._reform = self._value = None

    def value(self) -> np.ndarray:
        """The forward value, rebuilt by the re-former on first read."""
        if self._value is None:
            self._value = self._reform()
        return self._value

    def release(self):
        """Drop everything the node holds for backward; it stays a graph endpoint."""
        self.grad = self._backward = self._reform = self._value = None
        self._parents = ()


class Tensor:
    """A forward value, and its tape node when it is tracked.

    `data` is the forward value. Only tracked tensors (op outputs with a
    tracked input while grad is enabled, and Parameters) own a `_Node`;
    `grad`, `requires_grad`, `_backward` and `_parents` read through it, and
    `grad` and `_backward` write through it. Backward closures receive the
    node's output adjoint and add into each input node's grad via
    `_accumulate`. They capture input nodes and keep what they read only
    through `_saved` (which `pack_hook` observes), never an input Tensor, so
    an activation no backward reads is freed as soon as the forward drops
    it. Closures always hand over freshly allocated arrays, so first
    assignment needs no defensive copy.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        self._node = _Node(parents, backward) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.item())

    def backward(self):
        """Reverse-mode sweep from this scalar node; it consumes the graph.

        A node keeps its adjoint, its closure and its inputs' nodes; what its
        closure and re-former kept through `_saved` are the only activations
        held for backward; each has at most T rows, so the tape grows
        linearly in T and keeps no attention scores. Each
        non-leaf node is released as soon as its closure has run: its grad,
        closure, parent links, re-former and rebuilt value are dropped, so
        those arrays are freed while the sweep goes on, and backward needs
        little memory beyond what the forward pass left (about one attention
        call's re-formed Q, K, V and output). Leaves (Parameters included)
        keep their grad. A second call on the same graph propagates nothing,
        and neither does a call on an untracked tensor; build a new graph to
        differentiate again.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        if self._node is None:
            return
        topo = []
        visited = set()
        stack = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.release()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Named learnable leaf; `grad` is zeroed between optimizer steps."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(np.asarray(value), requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _tracking(*tensors) -> bool:
    return _grad_enabled.get() and any(t._node is not None for t in tensors)


def _tracked(out_data, backward, *nodes, reform=None) -> Tensor:
    """A tracked op output whose tape parents are the tracked input nodes."""
    out = Tensor(out_data, True, tuple(n for n in nodes if n is not None), backward)
    out._node._reform = reform
    return out


def _saved(value, op: str):
    """What a backward closure or re-former of `op` keeps to read `value`
    later: a Tensor's node if the node can re-form the value, else its
    array; an array as is. Under `pack_hook`, what the hook returns."""
    kept = value
    if isinstance(value, Tensor):
        node = value._node
        kept = node if node is not None and node._reform is not None else value.data
    hook = _pack.get()
    return kept if hook is None else hook(value, op, kept)


def _value(saved) -> np.ndarray:
    """The array a `_saved` entry stands for."""
    return saved.value() if isinstance(saved, _Node) else saved


def _accumulate(node: _Node | None, g: np.ndarray):
    if node is None:
        return
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.ascontiguousarray(g).reshape(shape)


def as_tensor(data) -> Tensor:
    """Wrap raw data as a non-learnable leaf."""
    return Tensor(np.asarray(data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """out = a @ b; backward: da = g @ b.T, db = a.T @ g. The output's
    re-former runs the same GEMM again on the operands backward keeps."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data
    if not _tracking(a, b):
        return Tensor(out_data)
    a_saved, b_saved, an, bn = _saved(a, "matmul"), _saved(b, "matmul"), a._node, b._node

    def backward(g):
        _accumulate(an, g @ _value(b_saved).T)
        _accumulate(bn, _value(a_saved).T @ g)

    return _tracked(out_data, backward, an, bn,
                    reform=lambda: _value(a_saved) @ _value(b_saved))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting (bias rows, scalars)."""
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}") from exc
    if not _tracking(a, b):
        return Tensor(out_data)
    a_shape, b_shape, an, bn = a.data.shape, b.data.shape, a._node, b._node

    def backward(g):
        da = _unbroadcast(g, a_shape)
        db = _unbroadcast(g, b_shape)
        if db is g and da is g:
            db = g.copy()  # never alias one buffer into two parents
        _accumulate(an, da)
        _accumulate(bn, db)

    return _tracked(out_data, backward, an, bn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting (scalar fusion weights)."""
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.data.shape} * {b.data.shape}") from exc
    if not _tracking(a, b):
        return Tensor(out_data)
    a_saved, b_saved, an, bn = _saved(a, "mul"), _saved(b, "mul"), a._node, b._node
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        _accumulate(an, _unbroadcast(g * _value(b_saved), a_shape))
        _accumulate(bn, _unbroadcast(g * _value(a_saved), b_shape))

    return _tracked(out_data, backward, an, bn)


def scale(a: Tensor, c: float) -> Tensor:
    """out = c * a for a plain python constant c."""
    c = a.data.dtype.type(c)
    out_data = a.data * c
    if not _tracking(a):
        return Tensor(out_data)
    an = a._node

    def backward(g):
        _accumulate(an, g * c)

    return _tracked(out_data, backward, an)


def relu(x: Tensor) -> Tensor:
    """max(x, 0). The tape keeps x through `_saved`: in the model x is a conv
    output, whose node re-forms it. Backward's mask x > 0 and the output's
    re-former both read that value, which the node rebuilds once."""
    out_data = np.maximum(x.data, 0)
    if not _tracking(x):
        return Tensor(out_data)
    x_saved, xn = _saved(x, "relu"), x._node

    def backward(g):
        _accumulate(xn, g * (_value(x_saved) > 0))

    return _tracked(out_data, backward, xn, reform=lambda: np.maximum(_value(x_saved), 0))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    The generator turns it on: with no rng (inference) or rate 0 it is the
    exact identity and returns the input tensor itself. The tape keeps the
    keep-mask packed to one bit per element, and backward rebuilds the
    scaled mask from it.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    dtype = x.data.dtype
    out_data = x.data * (keep.astype(dtype) / dtype.type(1.0 - rate))
    if not _tracking(x):
        return Tensor(out_data)
    bits, shape, xn = _saved(np.packbits(keep), "dropout"), keep.shape, x._node

    def backward(g):
        mask = np.unpackbits(_value(bits), count=g.size).view(np.bool_).reshape(shape)
        _accumulate(xn, g * (mask.astype(dtype) / dtype.type(1.0 - rate)))

    return _tracked(out_data, backward, xn)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax, stable under row-max subtraction."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)
    if not _tracking(x):
        return Tensor(out_data)
    out_saved, xn = _saved(out_data, "softmax_rows"), x._node

    def backward(g):
        out = _value(out_saved)
        inner = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(xn, out * (g - inner))

    return _tracked(out_data, backward, xn)


def temporal_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each channel with mean/variance taken over the full time axis.

    Only valid on acausal paths: the statistics read the whole sequence.
    Population variance; eps fixed at 1e-5. The output is formed in place on
    `xhat`. The tape keeps the input as `_saved` does (in the model the
    ReLU's node) and the per-channel mean and 1/std, not `xhat`: the
    output's re-former and backward rebuild `xhat` with the forward's own
    operations, once between them (the first to need it builds it, backward
    drops it).
    """
    T, C = x.data.shape
    if T < 2:
        raise ShapeError(f"temporal_norm needs T >= 2, got T={T}")
    # one centring for the variance and xhat; bytes equal x.var's, as numpy
    # takes it the same way
    xd = x.data
    mean = xd.mean(axis=0)
    xhat = xd - mean
    var = np.add.reduce(xhat * xhat, axis=0) / T
    inv = 1.0 / np.sqrt(var + xd.dtype.type(1e-5))
    xhat *= inv
    xhat *= gain.data
    xhat += bias.data
    out_data, xhat = xhat, None  # it holds the output now; rebuilt() forms xhat anew
    if not _tracking(x, gain, bias):
        return Tensor(out_data)
    xn, gn, bn = x._node, gain._node, bias._node
    x_s, mean_s, inv_s, gain_s, bias_s = (_saved(v, "temporal_norm")
                                          for v in (x, mean, inv, gain, bias))

    def rebuilt():
        nonlocal xhat
        if xhat is None:
            xhat = _value(x_s) - _value(mean_s)
            xhat *= _value(inv_s)
        return xhat

    def backward(g):
        nonlocal xhat
        xh, xhat = rebuilt(), None
        _accumulate(gn, (g * xh).sum(axis=0))
        _accumulate(bn, g.sum(axis=0))
        dxhat = g * _value(gain_s)
        term = dxhat - dxhat.mean(axis=0) - xh * (dxhat * xh).mean(axis=0)
        _accumulate(xn, _value(inv_s) * term)

    return _tracked(out_data, backward, xn, gn, bn,
                    reform=lambda: rebuilt() * _value(gain_s) + _value(bias_s))


def dilated_conv1d(x: Tensor, w: Tensor, b: Tensor, dilation: int, causal: bool,
                   rows: int | None = None) -> Tensor:
    """1-D dilated convolution over the time axis with zero padding.

    x: (T, Cin), w: (K, Cin, Cout), b: (Cout,).
    causal:     y_t = b + sum_k w_k . x[t - (K-1-k)*d]   (taps at or before t)
    acausal:    y_t = b + sum_k w_k . x[t + (k - K//2)*d] (odd K, centered)
    Realized per tap: y starts as b and each tap adds x[src] @ w_k into the
    rows it reaches. A tap that reads only zero padding is skipped, and its
    weight gradient stays exactly zero.

    `rows` = n computes only the last n output rows (y_{T-n} .. y_{T-1}), as
    a streamed step does over [cached inputs | new inputs]; default all T.
    The output's re-former runs the same tap loop again on the input and
    weights that backward keeps for the gradients.
    """
    if x.data.ndim != 2 or w.data.ndim != 3 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"conv shapes incompatible: x {x.data.shape}, w {w.data.shape}")
    T = x.data.shape[0]
    n = T if rows is None else rows
    if not 1 <= n <= T:
        raise ShapeError(f"conv output rows must be in [1, {T}], got {n}")
    K = w.data.shape[0]
    if dilation < 1 or K < 1 or not (causal or K % 2):
        raise ConfigError(f"conv needs dilation >= 1 and a kernel >= 1, odd if acausal; "
                          f"got d={dilation}, K={K}, causal={causal}")
    o = T - n  # input row of output row 0
    taps = []
    for k in range(K):
        s = (k - (K - 1 if causal else K // 2)) * dilation  # tap k adds w_k . x[t + s] into y_t
        lo, hi = max(0, -o - s), n - max(s, 0)
        if lo < hi:
            taps.append((k, slice(lo + o + s, hi + o + s), slice(lo, hi)))

    def run_taps(xd, wd, bd):
        out = np.empty((n, wd.shape[2]), dtype=np.result_type(xd, wd, bd))
        out[:] = bd
        for k, src, dst in taps:
            out[dst] += xd[src] @ wd[k]
        return out

    out_data = run_taps(x.data, w.data, b.data)
    if not _tracking(x, w, b):
        return Tensor(out_data)
    xn, wn, bn = x._node, w._node, b._node
    saved = tuple(_saved(t, "dilated_conv1d") for t in (x, w, b))

    def backward(g):
        xd, wd = _value(saved[0]), _value(saved[1])
        _accumulate(bn, g.sum(axis=0))
        dw = np.zeros_like(wd)
        dx = np.zeros_like(xd)
        for k, src, dst in taps:
            dw[k] = xd[src].T @ g[dst]
            dx[src] += g[dst] @ wd[k].T
        _accumulate(wn, dw)
        _accumulate(xn, dx)

    return _tracked(out_data, backward, xn, wn, bn, reform=lambda: run_taps(*map(_value, saved)))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """[a | b] along the channel axis. The output's re-former concatenates
    the inputs' values again, each through its own re-former if it has one."""
    if a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"concat row mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = np.concatenate([a.data, b.data], axis=1)
    if not _tracking(a, b):
        return Tensor(out_data)
    ca, an, bn = a.data.shape[1], a._node, b._node
    a_saved, b_saved = _saved(a, "concat_channels"), _saved(b, "concat_channels")

    def backward(g):
        _accumulate(an, g[:, :ca].copy())
        _accumulate(bn, g[:, ca:].copy())

    def reform():
        return np.concatenate([_value(a_saved), _value(b_saved)], axis=1)

    return _tracked(out_data, backward, an, bn, reform=reform)
