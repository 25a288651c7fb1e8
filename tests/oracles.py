"""Brute-force reference implementations for attention and metric tests.

Deliberately naive: an explicit T x T mask and a literal masked softmax for
attention, recursion + memo for edit distance, per-frame sets for IoU, plain
python counting loops. These never share code with the package.
"""

import functools
import math

import numpy as np

from msast.errors import ConfigError, ShapeError


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


def dense_masked_attention_reference(q, k, v, mask) -> np.ndarray:
    """Literal masked attention over an explicit boolean mask."""
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    mask = np.asarray(mask, dtype=bool)
    T, C = q.shape
    if mask.shape != (T, T):
        raise ShapeError(f"mask shape {mask.shape} does not match T={T}")
    empty = ~mask.any(axis=1)
    if empty.any():
        raise ValueError(f"mask row {int(np.flatnonzero(empty)[0])} has no admissible positions")
    scores = np.where(mask, (q @ k.T) / math.sqrt(C), -np.inf).astype(q.dtype)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ v


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
