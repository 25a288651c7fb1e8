"""Brute-force reference implementations for attention and metric tests,
the central-difference gradient check, the loss it checks the model with,
`weight_buffer`, a check of a model's parameter layout, and
`tape_arrays`, a recorder of the arrays a tape keeps, on `numerics.pack_hook`.

Deliberately naive: an explicit T x T mask and a literal masked softmax for
attention, recursion + memo for edit distance, per-frame sets for IoU, plain
python counting loops. These never share code with the package's kernels.
"""

import contextlib
import functools
import math

import numpy as np

from msast import numerics as nx
from msast.errors import ConfigError, NumericError, ShapeError
from msast.numerics import no_grad
from msast.training import LOG_PROB_FLOOR, cross_entropy_loss, smoothing_loss


def attention_mask(T: int, window: int, causal: bool) -> np.ndarray:
    """Boolean T x T mask; row t marks the positions t may attend to."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    pos = np.arange(T)
    rel = pos[None, :] - pos[:, None]
    if causal:
        return (rel <= 0) & (rel > -window)
    half = window // 2
    return np.abs(rel) <= half


def _dense_weights(q, k, mask) -> np.ndarray:
    """Literal masked softmax of q k^T / sqrt(C) over an explicit boolean mask."""
    q = np.asarray(q)
    k = np.asarray(k)
    mask = np.asarray(mask, dtype=bool)
    T, C = q.shape
    if mask.shape != (T, T):
        raise ShapeError(f"mask shape {mask.shape} does not match T={T}")
    empty = ~mask.any(axis=1)
    if empty.any():
        raise ValueError(f"mask row {int(np.flatnonzero(empty)[0])} has no admissible positions")
    scores = np.where(mask, (q @ k.T) / math.sqrt(C), -np.inf).astype(q.dtype)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    return weights / weights.sum(axis=1, keepdims=True)


def dense_masked_attention_reference(q, k, v, mask) -> np.ndarray:
    """Literal masked attention over an explicit boolean mask."""
    return _dense_weights(q, k, mask) @ np.asarray(v)


def dense_masked_attention_backward(q, k, v, mask, g):
    """(dq, dk, dv) of sum(g * reference(q, k, v, mask)), through the T x T
    weights P: dV = P^T g, dS = P * (g V^T - rowsum(P * g V^T)),
    dQ = dS K / sqrt(C), dK = dS^T Q / sqrt(C)."""
    q, k, v, g = (np.asarray(a) for a in (q, k, v, g))
    p = _dense_weights(q, k, mask)
    dp = g @ v.T
    ds = p * (dp - (p * dp).sum(axis=1, keepdims=True))
    scale = 1.0 / math.sqrt(q.shape[1])
    return ds @ k * scale, ds.T @ q * scale, p.T @ g


def brute_edit_score(pred_labels, gt_labels) -> float:
    a = tuple(pred_labels)
    b = tuple(gt_labels)

    @functools.lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        if a[i - 1] == b[j - 1]:
            return dist(i - 1, j - 1)
        return 1 + min(dist(i - 1, j), dist(i, j - 1), dist(i - 1, j - 1))

    return 100.0 * (1.0 - dist(len(a), len(b)) / max(len(a), len(b)))


def brute_segments(labels):
    segs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            segs.append((int(labels[start]), start, t))
            start = t
    return segs


def brute_f1_counts(pred, gt, tau):
    pred_segs = brute_segments(pred)
    gt_segs = brute_segments(gt)
    matched = set()
    tp = fp = 0
    for p_label, p_start, p_end in pred_segs:
        p_frames = set(range(p_start, p_end))
        best_iou, best_idx = -1.0, -1
        for idx, (g_label, g_start, g_end) in enumerate(gt_segs):
            if g_label != p_label:
                iou = 0.0
            else:
                g_frames = set(range(g_start, g_end))
                iou = len(p_frames & g_frames) / len(p_frames | g_frames)
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        if best_iou >= tau and best_idx not in matched:
            tp += 1
            matched.add(best_idx)
        else:
            fp += 1
    fn = len(gt_segs) - len(matched)
    return tp, fp, fn


def brute_f1(pred, gt, tau):
    tp, fp, fn = brute_f1_counts(pred, gt, tau)
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def brute_frame_metrics(pred, gt):
    pred = list(int(v) for v in pred)
    gt = list(int(v) for v in gt)
    acc = 100.0 * sum(1 for p, g in zip(pred, gt) if p == g) / len(gt)
    per_class = {}
    for c in sorted(set(gt)):
        tp = sum(1 for p, g in zip(pred, gt) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred, gt) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred, gt) if p != c and g == c)
        per_class[c] = (
            100.0 * tp / (tp + fp) if tp + fp else 0.0,
            100.0 * tp / (tp + fn) if tp + fn else 0.0,
            100.0 * tp / (tp + fp + fn) if tp + fp + fn else 0.0,
        )
    return acc, per_class


def random_label_pair(rng, max_len=50, max_classes=5):
    T = int(rng.integers(1, max_len + 1))
    C = int(rng.integers(1, max_classes + 1))
    # segment-structured sequences exercise the matchers far better than iid noise
    def draw():
        out = []
        while len(out) < T:
            out.extend([int(rng.integers(0, C))] * int(rng.integers(1, 10)))
        return np.asarray(out[:T])
    return draw(), draw()


def finite_diff_check(f, params, eps: float = 1e-4) -> float:
    """Worst relative error between analytic gradients and central differences.

    `f` must be a deterministic closure returning a scalar Tensor (dropout
    off or frozen); run it in float64. Every element of every parameter is
    perturbed by +-eps. Relative error uses |a - n| / (|a| + |n| + 1e-4) so
    near-zero gradients are judged on absolute error.
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericError("finite_diff_check: loss is non-finite at the base point")
    loss.backward()
    analytic = {p.name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for p in params}
    worst = 0.0
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            ga = analytic[p.name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = f().item()
                flat[i] = orig - eps
                f_minus = f().item()
                flat[i] = orig
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise NumericError(f"finite_diff_check: non-finite loss perturbing {p.name}[{i}]")
                numeric = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(ga[i] - numeric) / (abs(ga[i]) + abs(numeric) + 1e-4)
                if rel > worst:
                    worst = rel
    return worst


def _floored_log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return np.maximum(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)), LOG_PROB_FLOOR)


def capture_smooth_prev(stages) -> list[np.ndarray]:
    """Each stage's floored previous-frame log-probs, to pin in `frozen_total_loss`."""
    return [_floored_log_softmax(logits.data)[:-1] for logits in stages.logits]


def frozen_total_loss(stages, labels, cfg, frozen) -> nx.Tensor:
    """`training.total_loss` with each stage's previous-frame term pinned to
    `frozen` (from `capture_smooth_prev` at the base point).

    The smoothing loss detaches the previous frame, so its analytic gradient
    is that of a function whose previous-frame term is a constant. Central
    differences see that function only if the term keeps its base-point
    value: each smoothing term here takes its value with the term pinned,
    and keeps the package's own backward, which is what the check tests.
    """
    total = None
    for logits, prev in zip(stages.logits, frozen):
        term = cross_entropy_loss(logits, labels)
        if cfg.smooth_lambda != 0.0:
            smooth = smoothing_loss(logits, cfg.smooth_tau)
            delta = _floored_log_softmax(logits.data)[1:] - prev
            smooth.data = np.asarray((np.minimum(np.abs(delta), cfg.smooth_tau) ** 2).mean(),
                                     dtype=logits.data.dtype)
            term = nx.add(term, nx.scale(smooth, cfg.smooth_lambda))
        total = term if total is None else nx.add(total, term)
    return total


def _buffer(arr: np.ndarray) -> np.ndarray:
    """The array that owns `arr`'s memory (`arr` itself unless it is a view)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def weight_buffer(model) -> np.ndarray:
    """The one buffer that holds every parameter of `model`, checked: a
    C-contiguous 1-D array that each Parameter's data views, in layout
    order, slot after slot with no gap and nothing after the last."""
    buf = model.weights
    assert buf.ndim == 1 and buf.flags.c_contiguous and buf.flags.owndata
    start, at = buf.__array_interface__["data"][0], 0
    for p in model.parameters():
        assert _buffer(p.data) is buf, p.name
        assert p.data.flags.c_contiguous and p.data.dtype == buf.dtype, p.name
        assert p.data.__array_interface__["data"][0] == start + at * buf.itemsize, p.name
        at += p.data.size
    assert at == buf.size
    return buf


@contextlib.contextmanager
def tape_arrays():
    """Record what the tapes built inside the block keep: a live view of
    (buffer, bytes, op), one entry per distinct array.

    Every array a closure or re-former keeps passes `_saved`, so a pack
    hook sees it with the op that keeps it; a node kept to re-form its
    value holds no array and is not listed. A view counts as the buffer it
    views. A buffer several ops keep is listed once, under the first op
    that packs it. Parameter arrays that closures read are listed too.
    """
    kept = {}

    def record(value, op, saved):
        if isinstance(saved, np.ndarray):
            buf = _buffer(saved)
            kept.setdefault(id(buf), (buf, buf.nbytes, op))
        return saved

    with nx.pack_hook(record):
        yield kept.values()
