from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msast.errors import DataError
from msast.metrics import (
    F1_THRESHOLDS,
    RIBBON_PALETTE,
    EvalReport,
    Segment,
    aggregate,
    confusion_matrix,
    edit_score,
    emit_ribbon,
    evaluate_video,
    f1_avg,
    per_video_summary,
    ribbon_color,
    segments_from_labels,
)

from tests.oracles import (
    brute_edit_score,
    brute_f1,
    brute_f1_counts,
    brute_frame_metrics,
    random_label_pair,
)

label_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60)


# --- segments ----------------------------------------------------------------

def test_segments_basic():
    assert segments_from_labels([7, 7, 8]) == [Segment(7, 0, 2), Segment(8, 2, 3)]


def test_segments_singleton():
    assert segments_from_labels([3]) == [Segment(3, 0, 1)]


def test_segments_empty_rejected():
    with pytest.raises(DataError):
        segments_from_labels([])


@given(label_lists)
@settings(max_examples=200, deadline=None)
def test_segments_round_trip(labels):
    segs = segments_from_labels(labels)
    rebuilt = [seg.label for seg in segs for _ in range(len(seg))]
    assert rebuilt == labels
    # maximal runs: adjacent segments differ in label
    assert all(a.label != b.label for a, b in zip(segs, segs[1:]))
    assert all(a.end == b.start for a, b in zip(segs, segs[1:]))


# --- frame metrics -------------------------------------------------------------

def test_frame_metrics_perfect():
    report = evaluate_video([0, 1, 2, 1], [0, 1, 2, 1], 5)
    assert report.accuracy == 100.0
    assert report.precision == report.recall == report.jaccard == 100.0


def test_frame_metrics_counting_example():
    report = evaluate_video([0, 1, 1, 1], [0, 0, 1, 1], 5)
    assert report.accuracy == 75.0
    assert set(report.per_class) == {0, 1}
    assert report.per_class[0].precision == 100.0
    assert report.per_class[0].recall == 50.0
    assert report.per_class[0].jaccard == 50.0
    assert report.per_class[1].precision == pytest.approx(66.6667, abs=1e-3)
    assert report.per_class[1].recall == 100.0
    assert report.per_class[1].jaccard == pytest.approx(66.6667, abs=1e-3)


def test_frame_metrics_all_wrong():
    assert evaluate_video([1, 1, 1], [0, 0, 0], 5).accuracy == 0.0


def test_frame_metrics_length_mismatch():
    with pytest.raises(DataError):
        evaluate_video([0, 1], [0, 1, 2], 5)


def test_frame_metrics_empty_rejected():
    with pytest.raises(DataError):
        evaluate_video([], [], 5)


def test_frame_metrics_matches_direct_counting():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pred, gt = random_label_pair(rng)
        report = evaluate_video(pred, gt, 5)
        acc, per_class = brute_frame_metrics(pred, gt)
        assert report.accuracy == pytest.approx(acc)
        assert set(report.per_class) == set(per_class)
        for c, (p, r, j) in per_class.items():
            assert report.per_class[c].precision == pytest.approx(p)
            assert report.per_class[c].recall == pytest.approx(r)
            assert report.per_class[c].jaccard == pytest.approx(j)


def test_accuracy_symmetry_and_precision_recall_duality():
    rng = np.random.default_rng(4)
    for _ in range(30):
        pred, gt = random_label_pair(rng)
        forward, backward = evaluate_video(pred, gt, 5), evaluate_video(gt, pred, 5)
        assert forward.accuracy == backward.accuracy
        for c in set(gt.tolist()) & set(pred.tolist()):
            assert forward.per_class[c].precision == pytest.approx(backward.per_class[c].recall)


# --- edit score -----------------------------------------------------------------

def test_edit_identical():
    segs = segments_from_labels([0, 0, 1, 2, 2])
    assert edit_score(segs, segs) == 100.0


def test_edit_one_deletion():
    gt = segments_from_labels([0, 1, 2])
    pred = segments_from_labels([0, 2])
    assert edit_score(pred, gt) == pytest.approx(100 * (1 - 1 / 3), abs=1e-9)


def test_edit_disjoint():
    assert edit_score(segments_from_labels([0]), segments_from_labels([1])) == 0.0


def test_edit_empty_rejected():
    with pytest.raises(DataError):
        edit_score([], segments_from_labels([1]))


def test_edit_matches_brute_force_200_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pred, gt = random_label_pair(rng)
        got = edit_score(segments_from_labels(pred), segments_from_labels(gt))
        want = brute_edit_score([s.label for s in segments_from_labels(pred)],
                                [s.label for s in segments_from_labels(gt)])
        assert got == pytest.approx(want, abs=1e-9)


# --- F1 at overlap -----------------------------------------------------------------

def test_f1_perfect_at_all_thresholds():
    seq = [0, 0, 1, 1, 1, 2]
    report = evaluate_video(seq, seq, 5)
    for t in F1_THRESHOLDS:
        assert report.f1_counts[t] == (3, 0, 0)
        assert report.f1_at[t] == 100.0


def test_f1_boundary_iou_half_counts_at_50():
    # gt: A on 0-9 then C on 10-19; pred trims A to 0-4 (IoU exactly 0.5)
    # and stretches C (IoU 10/15). Both match at every threshold.
    gt = [0] * 10 + [2] * 10
    pred = [0] * 5 + [2] * 15
    report = evaluate_video(pred, gt, 5)
    for t in F1_THRESHOLDS:
        assert report.f1_counts[t] == (2, 0, 0)
        assert report.f1_at[t] == 100.0


def test_f1_over_segmentation_penalty():
    # gt: one long A run then B. pred chops A into three pieces separated by
    # spurious B slivers: among six pred segments, the first A piece and the
    # final B match (2 TP), the rest are FP -> precision 2/6, recall 2/2.
    gt = [0] * 30 + [1] * 10
    pred = [0] * 8 + [1] * 2 + [0] * 8 + [1] * 2 + [0] * 10 + [1] * 10
    report = evaluate_video(pred, gt, 5)
    assert report.f1_counts[10] == (2, 4, 0)
    assert report.f1_at[10] == pytest.approx(50.0, abs=1e-6)


def test_f1_matches_brute_force_200_pairs():
    rng = np.random.default_rng(6)
    for _ in range(200):
        pred, gt = random_label_pair(rng)
        report = evaluate_video(pred, gt, 5)
        for t in F1_THRESHOLDS:
            assert report.f1_counts[t] == brute_f1_counts(pred, gt, t / 100)
            assert report.f1_at[t] == brute_f1(pred, gt, t / 100)[2]


def test_f1_monotone_in_threshold():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pred, gt = random_label_pair(rng)
        f1_at = evaluate_video(pred, gt, 5).f1_at
        assert f1_at[10] >= f1_at[25] >= f1_at[50]


# --- f1_avg --------------------------------------------------------------------------

def test_f1_avg_reported_rows():
    assert f1_avg(68.02, 68.02, 62.45) == pytest.approx(66.16, abs=0.01)
    assert f1_avg(60.61, 59.71, 54.10) == pytest.approx(58.14, abs=0.01)


def test_f1_avg_saturated():
    assert f1_avg(100, 100, 100) == 100


# --- relabeling invariance -------------------------------------------------------------

def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pred, gt = random_label_pair(rng, max_classes=5)
        perm = rng.permutation(5)
        pred2, gt2 = perm[pred], perm[gt]
        a = evaluate_video(pred, gt, 5)
        b = evaluate_video(pred2, gt2, 5)
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.edit == pytest.approx(b.edit)
        assert a.precision == pytest.approx(b.precision)
        assert a.jaccard == pytest.approx(b.jaccard)
        for tau in (10, 25, 50):
            assert a.f1_at[tau] == pytest.approx(b.f1_at[tau])


# --- confusion matrix --------------------------------------------------------------------

def test_confusion_diagonal_when_perfect():
    cm = confusion_matrix([0, 1, 1, 2], [0, 1, 1, 2], 3)
    assert np.array_equal(cm, np.diag([1, 2, 1]))


def test_confusion_row_sums_are_gt_counts():
    rng = np.random.default_rng(9)
    pred, gt = random_label_pair(rng)
    cm = confusion_matrix(pred, gt, 5)
    for c in range(5):
        assert cm[c].sum() == (gt == c).sum()
    # uint8 ids 15..19 with 20 classes: gt * 20 would wrap in uint8
    narrow = confusion_matrix(pred.astype(np.uint8) + 15, gt.astype(np.uint8) + 15, 20)
    assert np.array_equal(narrow[15:, 15:], cm)


@pytest.mark.parametrize("bad_id", [-1, 3])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_confusion_rejects_out_of_range_ids(side, bad_id):
    ids = {"pred": [0, 1, 2], "gt": [0, 1, 2]}
    ids[side] = [0, bad_id, 2]
    with pytest.raises(DataError, match=rf"{side}: class id {bad_id} at frame 1 out of range"):
        confusion_matrix(ids["pred"], ids["gt"], 3)


def test_evaluate_video_rejects_negative_gt():
    # a -1 would otherwise wrap into the last confusion row and inflate the pooled accuracy
    with pytest.raises(DataError):
        evaluate_video(np.array([2, 0, 1]), np.array([-1, 0, 1]), 3)


# --- aggregate ------------------------------------------------------------------------------

def _report(pred, gt):
    return evaluate_video(np.asarray(pred), np.asarray(gt), 3)


def test_aggregate_single_video():
    # [1, 1, 0] vs [0, 0, 0] scores 1/3 correct, where 100*(1/3) and 100*1/3 differ in the last place
    for pred, gt in (([0, 1, 1], [0, 1, 2]), ([1, 1, 0], [0, 0, 0])):
        report = _report(pred, gt)
        summary = per_video_summary([report])
        assert summary["accuracy_mean"] == pytest.approx(report.accuracy)
        assert summary["accuracy_std"] == 0.0
        overall = aggregate([report])
        for f in fields(EvalReport):
            if f.name == "confusion":
                assert np.array_equal(overall.confusion, report.confusion)
            else:
                assert getattr(overall, f.name) == getattr(report, f.name), f.name


def test_aggregate_mean_and_population_std():
    r1 = _report([0, 1, 1, 1, 0, 1, 1, 1, 1, 1], [0, 1, 1, 1, 0, 1, 1, 1, 1, 0])  # 90%
    r2 = _report([0, 0, 1, 1], [0, 0, 1, 1])  # 100%
    summary = per_video_summary([r1, r2])
    assert summary["accuracy_mean"] == pytest.approx(95.0)
    assert summary["accuracy_std"] == pytest.approx(5.0)


def test_aggregate_overall_pools_frame_counts():
    # 10 frames at 90% + 40 frames at 100% -> pooled 49/50 = 98%
    r1 = _report([0] * 9 + [1], [0] * 10)
    r2 = _report([1] * 40, [1] * 40)
    overall = aggregate([r1, r2])
    assert overall.accuracy == pytest.approx(100 * 49 / 50)
    # the per-video mean is 95
    summary = per_video_summary([r1, r2])
    assert summary["accuracy_mean"] == pytest.approx(95.0)


def test_aggregate_empty_rejected():
    for combine in (aggregate, per_video_summary):
        with pytest.raises(DataError, match="at least one report"):
            combine([])


def test_aggregate_overall_rejects_mixed_class_counts():
    pred, gt = np.array([0, 1]), np.array([0, 0])
    with pytest.raises(DataError, match="different sizes"):
        aggregate([evaluate_video(pred, gt, 2), evaluate_video(pred, gt, 3)])


# --- ribbon ----------------------------------------------------------------------------------

def _read_ppm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    header, rest = data.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    maxval, pixels = rest.split(b"\n", 1)
    width, height = map(int, dims.split())
    assert maxval == b"255"
    return width, height, np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)


def test_ribbon_solid_band(tmp_path):
    path = tmp_path / "solid.ppm"
    emit_ribbon([("gt", np.zeros(12, dtype=int))], path)
    width, height, pixels = _read_ppm(path)
    assert (width, height) == (12, 16)
    assert (pixels == pixels[0, 0]).all()


def test_ribbon_two_band_geometry(tmp_path):
    path = tmp_path / "two.ppm"
    emit_ribbon([("pred", np.zeros(30, dtype=int)), ("gt", np.ones(30, dtype=int))], path)
    width, height, pixels = _read_ppm(path)
    assert (width, height) == (30, 32)
    assert not np.array_equal(pixels[0], pixels[-1])


def test_ribbon_palette_stable(tmp_path):
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    seq = np.array([0, 1, 2, 3, 2, 1])
    emit_ribbon([("x", seq)], a)
    emit_ribbon([("x", seq)], b)
    assert a.read_bytes() == b.read_bytes()


def test_ribbon_length_mismatch(tmp_path):
    with pytest.raises(DataError):
        emit_ribbon([("a", np.zeros(3, dtype=int)), ("b", np.zeros(4, dtype=int))],
                    tmp_path / "bad.ppm")


def test_ribbon_class_out_of_palette(tmp_path):
    with pytest.raises(DataError):
        emit_ribbon([("a", np.array([3, -1]))], tmp_path / "bad.ppm")


def test_ribbon_colors_extend_the_palette(tmp_path):
    path = tmp_path / "many.ppm"
    emit_ribbon([("x", np.arange(64))], path)
    _, _, pixels = _read_ppm(path)
    colors = [tuple(int(c) for c in px) for px in pixels[0]]
    assert colors == [ribbon_color(c) for c in range(64)]
    assert colors[:16] == list(RIBBON_PALETTE)
    assert len(set(colors)) == 64
