"""Single-head sliding-window attention in causal and acausal forms.

The window grows with depth on a per-kernel schedule: width 1 in the first
layer, then (k-1) * 2^(l-2) in layer l, which doubles per layer and lands
on 512 (k=3), 1024 (k=5) and 4096 (k=17) at layer 10. A width-1 window
attends each row to itself alone, so attention there is V; the model's
block forms that term itself and calls this kernel from layer 2 on.

`sliding_window_attention` is one query-chunked kernel, the sliding-chunks
scheme of Longformer (Beltagy et al. 2020) with FlashAttention-style query
tiling (Dao et al. 2022). Each chunk of `_CHUNK` query rows attends with
dense GEMMs to the key/value slab its window can reach, so memory and work
are O(T * (chunk + width)), not O(T^2), and a sequence of at most `_CHUNK`
frames is a single dense chunk. The kernel scales a chunk's queries by
1/sqrt(C) when it reaches the chunk, so it holds no scaled copy of Q. It
takes its branch's fusion weight mix_j and returns mix_j * attention,
formed in place on its own output; the model's block scales that term by
alpha. For backward it keeps two floats per query row, each row's softmax
max and sum, and recomputes a chunk's probabilities from them (the
FlashAttention backward), and with them the chunk's output, so the tape
holds O(T) floats for attention, not O(T * width) and not its output; a Q,
K or V that a projection GEMM produced is re-formed through that GEMM in
backward.
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
    """Window geometry for one attention call. `from_schedule` is where a
    model's widths come from; kernel_size/layer_index are labels only, naming
    its (kernel, layer), and nothing checks them against the width. Tests may
    set `window_size` directly and leave them None.
    """

    window_size: int
    causal: bool
    kernel_size: int | None = None
    layer_index: int | None = None

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")

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
                             weight: Tensor) -> Tensor:
    """Scaled dot-product attention restricted to a sliding window, returned
    times the scalar `weight` (a branch's mix_j).

    attention_t = sum over admissible t' of softmax(q_t . k_t' / sqrt(C)) v_t'.
    Causal windows cover [t-w+1, t]; acausal windows are centered, covering
    |t - t'| <= w // 2. Backward re-forms the attention output rather than
    keeping it, and gives the weight its gradient.

    k and v hold T rows; q may hold only the last n of them, and the output
    is then those n rows (row i is position T - n + i), as a streamed step
    needs against its cached keys and values.
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
    left, right = _band_extent(T, spec.window_size, spec.causal)
    inv_sqrt = q.data.dtype.type(1.0 / math.sqrt(C))
    kd, vd = k.data, v.data
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
    out_data *= weight.data
    if not _tracking(q, k, v, weight):
        return Tensor(out_data)
    # q, k, v, the bias and the output are rebuilt in backward, so the tape keeps O(n) floats here
    bias = kd = None
    qn, kn, vn, wn = q._node, k._node, v._node, weight._node
    *saved, w_saved = (_saved(t, "sliding_window_attention") for t in (q, k, v, stats, weight))

    def backward(g):
        nonlocal kd
        qd, kd, vd, stats = (_value(t) for t in saved)
        ga = g * _value(w_saved)  # the attention output's adjoint
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
        _accumulate(wn, np.ascontiguousarray((g * out).sum(axis=(0, 1))).reshape(()))

    return _tracked(out_data, backward, qn, kn, vn, wn)
