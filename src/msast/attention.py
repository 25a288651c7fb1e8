"""Single-head sliding-window attention in causal and acausal forms.

The window grows with depth on a per-kernel schedule: width 1 in the first
layer, then (k-1) * 2^(l-2) in layer l, which doubles per layer and lands
on 512 (k=3), 1024 (k=5) and 4096 (k=17) at layer 10.

`sliding_window_attention` is one query-chunked kernel, the sliding-chunks
scheme of Longformer (Beltagy et al. 2020) with FlashAttention-style query
tiling (Dao et al. 2022). Each chunk of `_CHUNK` query rows attends with
dense GEMMs to the key/value slab its window can reach, so memory and work
are O(T * (chunk + width)), not O(T^2), and a sequence of at most `_CHUNK`
frames is a single dense chunk. The kernel scales a chunk's queries by
1/sqrt(C) when it reaches the chunk, so it holds no scaled copy of Q, and
returns its branch's fusion term, the attention output times the branch's
fusion weight and alpha, formed in place on its own output. For
backward it keeps two floats per query row, each row's softmax max and sum,
and recomputes a chunk's probabilities from them (the FlashAttention
backward), and with them the chunk's output, so the tape holds O(T) floats
for attention, not O(T * width) and not its output; a Q, K or V that a
projection GEMM produced is re-formed through that GEMM in backward.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, _accumulate, _saved, _tracked, _tracking, _value

NEG_INF = float("-inf")
_CHUNK = 64  # query rows per chunk


def window_schedule(kernel_size: int, layer_index: int) -> int:
    """Attention window width for a conv kernel size at a 1-based layer index."""
    if layer_index < 1:
        raise ConfigError(f"layer_index must be >= 1, got {layer_index}")
    if kernel_size < 2:
        raise ConfigError(f"no window schedule for kernel size {kernel_size}")
    if layer_index == 1:
        return 1
    return (kernel_size - 1) * (1 << (layer_index - 2))


@dataclass(frozen=True)
class WindowSpec:
    """Window geometry for one attention call.

    kernel_size/layer_index document where the window came from; when both
    are set the width must agree with `window_schedule`. Tests may pin
    `window_size` directly and leave them None.
    """

    window_size: int
    causal: bool
    kernel_size: int | None = None
    layer_index: int | None = None

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")
        if self.kernel_size is not None and self.layer_index is not None:
            expect = window_schedule(self.kernel_size, self.layer_index)
            if self.window_size != expect:
                raise ConfigError(
                    f"window_size {self.window_size} does not match schedule "
                    f"{expect} for kernel {self.kernel_size} layer {self.layer_index}"
                )

    @classmethod
    @functools.lru_cache(maxsize=256)  # frozen, so one instance per geometry is shared
    def from_schedule(cls, kernel_size: int, layer_index: int, causal: bool) -> "WindowSpec":
        return cls(
            window_size=window_schedule(kernel_size, layer_index),
            causal=causal,
            kernel_size=kernel_size,
            layer_index=layer_index,
        )


def _band_extent(T: int, window: int, causal: bool) -> tuple[int, int]:
    """(left, right) reach of the band, clipped to the sequence."""
    if causal:
        return min(window - 1, T - 1), 0
    half = window // 2
    return min(half, T - 1), min(half, T - 1)


def sliding_window_attention(q: Tensor, k: Tensor, v: Tensor, spec: WindowSpec,
                             weight: Tensor, alpha: float) -> Tensor:
    """Scaled dot-product attention restricted to a sliding window, returned
    as its branch's fusion term alpha * (weight * attention).

    attention_t = sum over admissible t' of softmax(q_t . k_t' / sqrt(C)) v_t'.
    Causal windows cover [t-w+1, t]; acausal windows are centered, covering
    |t - t'| <= w // 2. The term is formed as the fusion forms it: the
    product with the scalar `weight`, then the scale by alpha when alpha !=
    1. Backward re-forms the attention output rather than keeping it, and
    gives the weight its gradient.

    k and v hold T rows; q may hold only the last n of them, and the output
    is then those n rows (row i is position T - n + i), as a streamed step
    needs against its cached keys and values. A width-1 window is the
    identity on v: no scores are formed, and q and k get no gradient.
    """
    if k.data.shape != v.data.shape or q.data.shape[1:] != k.data.shape[1:]:
        raise ShapeError(
            f"attention operands must share a shape: q {q.data.shape}, "
            f"k {k.data.shape}, v {v.data.shape}"
        )
    if q.data.ndim != 2 or q.data.shape[1] < 1 or not 1 <= q.data.shape[0] <= k.data.shape[0]:
        raise ShapeError(f"attention needs n x C queries against T >= n keys, "
                         f"got q {q.data.shape}, k {k.data.shape}")
    if weight.data.shape != ():
        raise ShapeError(f"attention weight must be a scalar, got shape {weight.data.shape}")
    (n, C), T = q.data.shape, k.data.shape[0]
    o = T - n  # position of query row 0
    vd, vn = v.data, v._node
    w_saved, wn = _saved(weight), weight._node
    scale = q.data.dtype.type(alpha)

    def term(out):
        """alpha * (weight * out), in the fusion's order, formed in place on
        `out`, an output of this call's own."""
        out *= weight.data
        if alpha != 1.0:
            out *= scale
        return out

    def adjoints(g):
        """(the adjoint of weight * attention, the attention output's adjoint)."""
        if alpha != 1.0:
            g = g * scale
        return g, g * _value(w_saved)

    def weight_grad(g, out):
        """The weight's gradient, reduced as a broadcast product's is."""
        _accumulate(wn, np.ascontiguousarray((g * out).sum(axis=(0, 1))).reshape(()))

    if spec.window_size == 1:
        out_data = term(vd[o:].copy())
        if not _tracking(v, weight):
            return Tensor(out_data)
        v_saved = _saved(v)

        def backward_identity(g):
            g, ga = adjoints(g)
            _accumulate(vn, np.pad(ga, ((o, 0), (0, 0))))
            weight_grad(g, _value(v_saved)[o:])

        return _tracked(out_data, backward_identity, vn, wn)
    left, right = _band_extent(T, spec.window_size, spec.causal)
    inv_sqrt = q.data.dtype.type(1.0 / math.sqrt(C))
    kd = k.data
    bias = None

    def scores(qc, s, e, a, b):
        """qc . kd[a:b]^T for the scaled queries qc of rows s:e, -inf where a
        chunk row's window misses the slab."""
        nonlocal bias
        out = qc @ kd[a:b].T
        if a - (o + e) + 1 < -left or b - 1 - (o + s) > right:
            if bias is None:
                # Column j is key p - left + j for chunk row i (query p + i), so a
                # chunk's bias is the column slice at its clipped slab start.
                # -inf out of the window weighs exactly zero after exp. Later
                # chunks are no taller than this one.
                row, col = np.arange(e - s)[:, None], np.arange(e - s + left + right)
                bias = np.where((col < row) | (col > row + left + right),
                                qc.dtype.type(NEG_INF), qc.dtype.type(0.0))
            c = a - (o + s) + left
            out += bias[:e - s, c:c + b - a]
        return out

    def chunks():
        """(s, e, a, b) per chunk: query rows s:e and the key slab a:b they reach."""
        for s in range(0, n, _CHUNK):
            e = min(s + _CHUNK, n)
            yield s, e, max(0, o + s - left), min(T, o + e + right)

    out_data = np.empty_like(q.data)
    stats = np.empty((n, 2), dtype=q.data.dtype)  # each query row's softmax max and sum
    for s, e, a, b in chunks():
        probs = scores(q.data[s:e] * inv_sqrt, s, e, a, b)
        probs -= probs.max(axis=1, keepdims=True, out=stats[s:e, :1])
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True, out=stats[s:e, 1:])
        np.matmul(probs, vd[a:b], out=out_data[s:e])
    out_data = term(out_data)
    if not _tracking(q, k, v, weight):
        return Tensor(out_data)
    # q, k, v, the bias and the output are rebuilt in backward, so the tape keeps O(n) floats here
    bias = kd = None
    saved, qn, kn = (_saved(q), _saved(k), _saved(v)), q._node, k._node

    def backward(g):
        nonlocal kd
        qd, kd, vd = (_value(t) for t in saved)
        g, ga = adjoints(g)
        out, dq, dk, dv = np.empty_like(qd), np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for s, e, a, b in chunks():
            # the forward's operations in its order, so probs and out are bit-identical
            qc = qd[s:e] * inv_sqrt
            probs = scores(qc, s, e, a, b)
            probs -= stats[s:e, :1]
            np.exp(probs, out=probs)
            probs /= stats[s:e, 1:]
            np.matmul(probs, vd[a:b], out=out[s:e])
            # sum_j P_ij dP_ij = g_i . out_i, so the softmax backward needs no slab-wide reduction
            delta = np.einsum("ij,ij->i", ga[s:e], out[s:e])[:, None]
            dv[a:b] += probs.T @ ga[s:e]
            ds = ga[s:e] @ vd[a:b].T
            ds -= delta
            ds *= probs
            np.matmul(ds, kd[a:b], out=dq[s:e])
            dk[a:b] += ds.T @ qc
        dq *= inv_sqrt
        _accumulate(qn, dq)
        _accumulate(kn, dk)
        _accumulate(vn, dv)
        weight_grad(g, out)

    return _tracked(out_data, backward, qn, kn, vn, wn)
