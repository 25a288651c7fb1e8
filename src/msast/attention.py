"""Single-head sliding-window attention in causal and acausal forms.

The window grows with depth on a per-kernel schedule: width 1 in the first
layer, then (k-1) * 2^(l-2) in layer l, which doubles per layer and lands
on 512 (k=3), 1024 (k=5) and 4096 (k=17) at layer 10.

`sliding_window_attention` is one query-chunked kernel, the sliding-chunks
scheme of Longformer (Beltagy et al. 2020) with FlashAttention-style query
tiling (Dao et al. 2022). Each chunk of `_CHUNK` query rows attends with
dense GEMMs to the key/value slab its window can reach, so memory and work
are O(T * (chunk + width)), not O(T^2), and a sequence of at most `_CHUNK`
frames is a single dense chunk.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, _accumulate, _tracking

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


def sliding_window_attention(q: Tensor, k: Tensor, v: Tensor, spec: WindowSpec) -> Tensor:
    """Scaled dot-product attention restricted to a sliding window.

    out_t = sum over admissible t' of softmax(q_t . k_t' / sqrt(C)) v_t'.
    Causal windows cover [t-w+1, t]; acausal windows are centered, covering
    |t - t'| <= w // 2.
    """
    if q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError(
            f"attention operands must share a shape: q {q.data.shape}, "
            f"k {k.data.shape}, v {v.data.shape}"
        )
    if q.data.ndim != 2 or q.data.shape[1] < 1:
        raise ShapeError(f"attention needs a T x C matrix, got {q.data.shape}")
    T, C = q.data.shape
    left, right = _band_extent(T, spec.window_size, spec.causal)
    inv_sqrt = q.data.dtype.type(1.0 / math.sqrt(C))
    qs = q.data * inv_sqrt
    kd, vd = k.data, v.data
    # Column j of `bias` is key s - left + j for chunk row i (query s + i), so a
    # chunk's bias is the column slice at its clipped slab start. Adding -inf
    # out of the window makes those scores weigh exactly zero after exp.
    n = min(T, _CHUNK)
    rel = np.arange(n + left + right)[None, :] - np.arange(n)[:, None]
    bias = np.where((rel < 0) | (rel > left + right), NEG_INF, 0.0).astype(qs.dtype)
    out_data = np.empty_like(qs)
    tracking = _tracking(q, k, v)
    chunks = []
    for s in range(0, T, _CHUNK):
        e = min(s + _CHUNK, T)
        a, b = max(0, s - left), min(T, e + right)
        probs = qs[s:e] @ kd[a:b].T
        if a - e + 1 < -left or b - 1 - s > right:
            c = a - s + left
            probs += bias[:e - s, c:c + b - a]
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        np.matmul(probs, vd[a:b], out=out_data[s:e])
        if tracking:
            chunks.append((s, e, a, b, probs))
    if not tracking:
        return Tensor(out_data)

    def backward(g):
        # sum_j P_ij dP_ij = g_i . out_i, so the softmax backward needs no slab-wide reduction
        delta = np.einsum("ij,ij->i", g, out_data)[:, None]
        dq, dk, dv = np.empty_like(qs), np.zeros_like(kd), np.zeros_like(vd)
        for s, e, a, b, probs in chunks:
            dv[a:b] += probs.T @ g[s:e]
            ds = g[s:e] @ vd[a:b].T
            ds -= delta[s:e]
            ds *= probs
            np.matmul(ds, kd[a:b], out=dq[s:e])
            dk[a:b] += ds.T @ qs[s:e]
        dq *= inv_sqrt
        _accumulate(q, dq)
        _accumulate(k, dk)
        _accumulate(v, dv)

    return Tensor(out_data, True, (q, k, v), backward)
