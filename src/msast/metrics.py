"""Frame-level and segmental evaluation for action/phase segmentation.

Frame metrics: accuracy plus per-class precision/recall/Jaccard macro-
averaged over classes present in the ground truth. Segmental metrics:
edit score (normalized Levenshtein over segment label strings) and F1 at
IoU overlap thresholds, with greedy max-IoU matching and at most one match
per ground-truth segment. No boundary relaxation anywhere.

Every score comes from one path: `_report` turns a counts[gt][pred] matrix
(`confusion_matrix`), the segment (tp, fp, fn) counts at each of
`F1_THRESHOLDS` and an edit score into an `EvalReport`. `evaluate_video`
and the pooled `aggregate(mode="overall")` differ only in the counts they
pass in.
"""

import colorsys
from dataclasses import dataclass, field

import numpy as np

from .data import check_class_ids
from .errors import DataError

F1_THRESHOLDS = (10, 25, 50)  # percent overlap


@dataclass(frozen=True)
class Segment:
    label: int
    start: int  # inclusive frame index
    end: int    # exclusive

    def __len__(self) -> int:
        return self.end - self.start


def segments_from_labels(labels) -> list[Segment]:
    """Maximal runs of equal labels, in temporal order."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise DataError("cannot segment an empty label sequence")
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [labels.size]])
    return [Segment(int(labels[s]), int(s), int(e)) for s, e in zip(starts, ends)]


@dataclass
class ClassScores:
    precision: float
    recall: float
    jaccard: float


def _ratio(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


def _levenshtein(a: list[int], b: list[int]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] if x == y else 1 + min(prev[j - 1], prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def edit_score(pred_segments: list[Segment], gt_segments: list[Segment]) -> float:
    """100 * (1 - Levenshtein(pred labels, gt labels) / max(len, len))."""
    if not pred_segments or not gt_segments:
        raise DataError("edit_score needs nonempty segment lists")
    dist = _levenshtein([s.label for s in pred_segments], [s.label for s in gt_segments])
    return 100.0 * (1.0 - dist / max(len(pred_segments), len(gt_segments)))


def _segment_iou(a: Segment, b: Segment) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start)
    return inter / union


def _best_matches(pred_segments, gt_segments) -> list[tuple[int, float]]:
    """(index, IoU) of each predicted segment's best same-label gt segment,
    the first of equals; it does not depend on the overlap threshold."""
    matches = []
    for ps in pred_segments:
        ious = [_segment_iou(ps, gs) if ps.label == gs.label else 0.0 for gs in gt_segments]
        best = int(np.argmax(ious))
        matches.append((best, ious[best]))
    return matches


def _overlap_counts(matches, num_gt: int, tau: float) -> tuple[int, int, int]:
    """(tp, fp, fn) under greedy max-IoU matching, one match per gt segment."""
    matched = [False] * num_gt
    tp = 0
    for best, iou in matches:
        if iou >= tau and not matched[best]:
            tp += 1
            matched[best] = True
    return tp, len(matches) - tp, num_gt - tp


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def f1_avg(f10: float, f25: float, f50: float) -> float:
    """Arithmetic mean of the three overlap F1 scores."""
    return (f10 + f25 + f50) / 3.0


def confusion_matrix(pred, gt, num_classes: int) -> np.ndarray:
    """counts[gt][pred] for class ids in [0, num_classes)."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DataError(f"length mismatch: pred {pred.shape} vs gt {gt.shape}")
    check_class_ids(pred, num_classes, "pred")
    check_class_ids(gt, num_classes, "gt")
    # int64 so that gt * num_classes cannot wrap in a narrow label dtype
    flat = gt.astype(np.int64, casting="same_kind", copy=False) * num_classes + pred
    counts = np.bincount(flat.ravel(), minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


@dataclass
class EvalReport:
    """All metrics for one video (or a pooled aggregate when video_id is None)."""

    accuracy: float
    precision: float
    recall: float
    jaccard: float
    edit: float
    f1_at: dict[int, float]
    f1_avg: float
    per_class: dict[int, ClassScores]
    confusion: np.ndarray
    f1_counts: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    video_id: str | None = None


def _report(confusion: np.ndarray, f1_counts: dict[int, tuple[int, int, int]],
            edit: float, video_id: str | None) -> EvalReport:
    """Scores from counts[gt][pred] (row i is class i) and segment counts."""
    tp = np.diag(confusion)
    gt_n = confusion.sum(axis=1)
    pred_n = confusion.sum(axis=0)
    per_class = {
        i: ClassScores(
            precision=_ratio(int(tp[i]), int(pred_n[i])),
            recall=_ratio(int(tp[i]), int(gt_n[i])),
            jaccard=_ratio(int(tp[i]), int(pred_n[i] + gt_n[i] - tp[i])),
        )
        for i in np.flatnonzero(gt_n).tolist()  # macro over classes present in gt
    }
    scores = per_class.values()
    f1_at = {t: _f1(*f1_counts[t]) for t in F1_THRESHOLDS}
    return EvalReport(
        accuracy=_ratio(int(tp.sum()), int(gt_n.sum())),
        precision=float(np.mean([s.precision for s in scores])),
        recall=float(np.mean([s.recall for s in scores])),
        jaccard=float(np.mean([s.jaccard for s in scores])),
        edit=edit,
        f1_at=f1_at,
        f1_avg=f1_avg(f1_at[10], f1_at[25], f1_at[50]),
        per_class=per_class,
        confusion=confusion,
        f1_counts=f1_counts,
        video_id=video_id,
    )


def evaluate_video(pred, gt, num_classes: int, video_id: str | None = None) -> EvalReport:
    pred_segs = segments_from_labels(pred)
    gt_segs = segments_from_labels(gt)
    matches = _best_matches(pred_segs, gt_segs)
    return _report(confusion_matrix(pred, gt, num_classes),
                   {t: _overlap_counts(matches, len(gt_segs), t / 100.0) for t in F1_THRESHOLDS},
                   edit_score(pred_segs, gt_segs), video_id)


def _scalar_metrics(report: EvalReport) -> dict[str, float]:
    out = {
        "accuracy": report.accuracy,
        "precision": report.precision,
        "recall": report.recall,
        "jaccard": report.jaccard,
        "edit": report.edit,
        "f1_avg": report.f1_avg,
    }
    for thresh in F1_THRESHOLDS:
        out[f"f1@{thresh}"] = report.f1_at[thresh]
    return out


def aggregate(reports: list[EvalReport], mode: str = "overall"):
    """Combine per-video reports.

    mode "per_video": mean and population std of each scalar metric, as a
    dict of "<metric>_mean"/"<metric>_std".
    mode "overall": an EvalReport recomputed from pooled frame and segment
    counts (edit, which has no count form, is the per-video mean).
    """
    if not reports:
        raise DataError("aggregate needs at least one report")
    if mode == "per_video":
        keys = _scalar_metrics(reports[0]).keys()
        rows = [_scalar_metrics(r) for r in reports]
        summary = {}
        for key in keys:
            values = np.array([row[key] for row in rows])
            summary[f"{key}_mean"] = float(values.mean())
            summary[f"{key}_std"] = float(values.std())  # population std
        return summary
    if mode != "overall":
        raise DataError(f"unknown aggregate mode {mode!r}")
    shapes = {r.confusion.shape for r in reports}
    if len(shapes) != 1:
        raise DataError(f"reports have confusion matrices of different sizes: {sorted(shapes)}")
    return _report(np.sum([r.confusion for r in reports], axis=0),
                   {t: tuple(map(sum, zip(*(r.f1_counts[t] for r in reports))))
                    for t in F1_THRESHOLDS},
                   float(np.mean([r.edit for r in reports])), None)


def report_lines(report: EvalReport, prefix: str = "") -> list[str]:
    """Stable "metric<TAB>value" lines for one report."""
    lines = []
    for key, value in _scalar_metrics(report).items():
        lines.append(f"{prefix}{key}\t{value:.4f}")
    for c, s in sorted(report.per_class.items()):
        lines.append(f"{prefix}precision_{c}\t{s.precision:.4f}")
        lines.append(f"{prefix}recall_{c}\t{s.recall:.4f}")
        lines.append(f"{prefix}jaccard_{c}\t{s.jaccard:.4f}")
    C = report.confusion.shape[0]
    for i in range(C):
        for j in range(C):
            lines.append(f"{prefix}confusion_{i}_{j}\t{int(report.confusion[i, j])}")
    return lines


# 16-color palette for ribbon plots, indexed by class id. Fixed so a class
# keeps its color across runs; `ribbon_color` extends it past 16 classes.
RIBBON_PALETTE = (
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
    (152, 223, 138), (255, 152, 150), (197, 176, 213), (196, 156, 148),
)
RIBBON_BAND_HEIGHT = 16  # pixel rows per sequence


def ribbon_color(class_id: int) -> tuple[int, int, int]:
    """RGB of a class id >= 0: RIBBON_PALETTE, then hues a golden-ratio turn
    apart (so consecutive ids differ), alternating in saturation."""
    if class_id < len(RIBBON_PALETTE):
        return RIBBON_PALETTE[class_id]
    hue = (class_id * 0.6180339887498949) % 1.0
    rgb = colorsys.hsv_to_rgb(hue, 0.45 + 0.3 * (class_id % 2), 0.9)
    return tuple(round(255 * c) for c in rgb)


def emit_ribbon(sequences: list[tuple[str, np.ndarray]], path):
    """Write a binary PPM (P6): one horizontal band per named sequence, one
    pixel column per frame, colored by class id (`ribbon_color`)."""
    if not sequences:
        raise DataError("emit_ribbon needs at least one sequence")
    lengths = {len(np.asarray(seq)) for _, seq in sequences}
    if len(lengths) != 1:
        raise DataError(f"ribbon sequences differ in length: {sorted(lengths)}")
    width = lengths.pop()
    if width == 0:
        raise DataError("ribbon sequences are empty")
    ids, index = np.unique(np.stack([np.asarray(seq) for _, seq in sequences]), return_inverse=True)
    if ids[0] < 0:
        raise DataError(f"class ids must be >= 0, got {ids[0]}")
    palette = np.asarray([ribbon_color(int(c)) for c in ids], dtype=np.uint8)
    pixels = np.repeat(palette[index.reshape(len(sequences), width)], RIBBON_BAND_HEIGHT, axis=0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
