"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Everything is seeded and deterministic.
"""

import contextlib

import numpy as np
import pytest

from msast.attention import WindowSpec, window_schedule
from msast.cli import main as cli_main
from msast.data import SynthConfig, generate_synthetic
from msast.metrics import F1_THRESHOLDS, aggregate, evaluate_video, f1_avg, segments_from_labels
from msast.model import ModelConfig, build_model, forward_full, predict
from msast.numerics import as_tensor
from msast.training import AdamState, TrainConfig, load_checkpoint, total_loss, train

from tests.oracles import attention_mask, brute_edit_score, brute_f1, brute_f1_counts, \
    brute_frame_metrics, capture_smooth_prev, dense_masked_attention_reference, finite_diff_check, \
    frozen_total_loss, random_label_pair
from tests.single_scale_reference import single_scale_forward
from tests.test_attention import plain_attention


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def test_criterion_1_f1_avg_reproduction():
    with criterion(1, "F1_AVG arithmetic reproduction"):
        assert f1_avg(68.02, 68.02, 62.45) == pytest.approx(66.16, abs=0.01)
        assert f1_avg(60.61, 59.71, 54.10) == pytest.approx(58.14, abs=0.01)


def test_criterion_2_window_schedule_table():
    with criterion(2, "window schedule table"):
        assert window_schedule(3, 1) == 1
        assert window_schedule(3, 10) == 512
        assert window_schedule(5, 2) == 4
        assert window_schedule(5, 10) == 1024
        assert window_schedule(17, 2) == 16
        assert window_schedule(17, 10) == 4096


@pytest.mark.slow
def test_criterion_3_full_tiny_model_gradient():
    with criterion(3, "gradient correctness, tiny full model"):
        cfg = ModelConfig(input_dim=4, num_classes=3, kernels=(3, 5, 17),
                          layers_per_stage=2, feature_maps=8, num_decoders=1,
                          causal=False, dropout=0.0)
        model = build_model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(2024)
        feats = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, size=12)
        tc = TrainConfig()
        frozen = capture_smooth_prev(forward_full(model, feats, mode="train"))

        def f():
            return frozen_total_loss(forward_full(model, feats, mode="train"), labels, tc, frozen)

        # eps 1e-5: the O(eps^2) truncation of the central difference itself
        # overshoots the 1e-4 bar at the harness default eps on a stack this deep
        err = finite_diff_check(f, model.parameters(), eps=1e-5)
        print(f"  max relative gradient error: {err:.3e}")
        assert err <= 1e-4


def test_criterion_4_attention_oracle_100_cases():
    with criterion(4, "sliding-window attention vs dense oracle"):
        rng = np.random.default_rng(4242)
        worst = 0.0
        for trial in range(100):
            T = int(rng.integers(2, 65))
            C = int(rng.integers(1, 17))
            w = int(rng.choice([1, 2, 5, 16]))
            causal = bool(rng.integers(0, 2))
            dtype = np.float32 if trial % 2 else np.float64
            q, k, v = (rng.normal(size=(T, C)).astype(dtype) for _ in range(3))
            ref = dense_masked_attention_reference(q, k, v, attention_mask(T, w, causal))
            got = plain_attention(as_tensor(q), as_tensor(k), as_tensor(v),
                                  WindowSpec(window_size=w, causal=causal)).data
            worst = max(worst, float(np.abs(ref - got).max()))
        print(f"  worst |kernel - oracle| over 100 cases: {worst:.3e}")
        assert worst <= 1e-6


def test_criterion_5_end_to_end_causality():
    with criterion(5, "end-to-end causality of the causal model"):
        cfg = ModelConfig(input_dim=64, num_classes=7, kernels=(3, 5, 17),
                          layers_per_stage=10, feature_maps=64, num_decoders=1,
                          causal=True, dropout=0.5)
        model = build_model(cfg, seed=3)
        rng = np.random.default_rng(55)
        feats = rng.normal(size=(128, 64)).astype(np.float32)
        base = [s.data.copy() for s in forward_full(model, feats).logits]
        for _ in range(20):
            t = int(rng.integers(0, 127))
            bumped = feats.copy()
            bumped[t + 1:] += rng.normal(size=bumped[t + 1:].shape).astype(np.float32) * 5.0
            out = forward_full(model, bumped)
            for s, logits in enumerate(out.logits):
                assert np.array_equal(logits.data[:t + 1], base[s][:t + 1]), \
                    f"stage {s} rows <= {t} changed under future perturbation"


@pytest.fixture(scope="module")
def stream_env(tmp_path_factory):
    """Small synthetic dataset + causal checkpoint trained through the CLI."""
    root = tmp_path_factory.mktemp("stream")
    data = root / "data"
    assert run_cli("synth", "--out", data, "--videos", 8, "--classes", 4, "--dim", 8,
                   "--tmin", 30, "--tmax", 50, "--sigma", 0.8, "--stay", 0.88,
                   "--seed", 71) == 0
    config = root / "run.cfg"
    config.write_text(
        f"data_root={data}\nkernels=3,5\nlayers_per_stage=3\nfeature_maps=16\n"
        "epochs=2\nlearning_rate=0.001\nseed=5\n")
    ckpt = root / "causal.ckpt"
    assert run_cli("train", "--config", config, "--causal", "--out", ckpt) == 0
    return root, data, config, ckpt


def test_criterion_6_streaming_equivalence(stream_env):
    root, data, _, ckpt = stream_env
    with criterion(6, "cmd_stream byte-equal to cmd_predict"):
        feature_files = sorted((data / "features").iterdir())
        assert len(feature_files) >= 5
        for feature_file in feature_files[:5]:
            pred_out = root / f"{feature_file.stem}.p.txt"
            stream_out = root / f"{feature_file.stem}.s.txt"
            assert run_cli("predict", "--ckpt", ckpt, "--features", feature_file,
                           "--out", pred_out) == 0
            assert run_cli("stream", "--ckpt", ckpt, "--features", feature_file,
                           "--out", stream_out) == 0
            assert pred_out.read_bytes() == stream_out.read_bytes(), feature_file.name


def test_criterion_7_metric_oracles():
    with criterion(7, "segmental metrics vs brute force"):
        rng = np.random.default_rng(909)
        for _ in range(200):
            pred, gt = random_label_pair(rng, max_len=50, max_classes=5)
            report = evaluate_video(pred, gt, 5)  # the scorer `msast eval` runs
            want_edit = brute_edit_score([s.label for s in segments_from_labels(pred)],
                                         [s.label for s in segments_from_labels(gt)])
            assert report.edit == pytest.approx(want_edit, abs=1e-9)
            for t in F1_THRESHOLDS:
                assert report.f1_counts[t] == brute_f1_counts(pred, gt, t / 100)
                assert report.f1_at[t] == brute_f1(pred, gt, t / 100)[2]
            acc, per_class = brute_frame_metrics(pred, gt)
            assert report.accuracy == pytest.approx(acc)
            assert set(report.per_class) == set(per_class)
            for c, (p, r, j) in per_class.items():
                assert report.per_class[c].precision == pytest.approx(p)
                assert report.per_class[c].recall == pytest.approx(r)
                assert report.per_class[c].jaccard == pytest.approx(j)


def test_criterion_8_single_scale_reduction():
    with criterion(8, "single-scale reduction, bit-exact"):
        rng = np.random.default_rng(88)
        for causal in (False, True):
            cfg = ModelConfig(input_dim=16, num_classes=5, kernels=(3,),
                              layers_per_stage=10, feature_maps=64,
                              num_decoders=3 if not causal else 1,
                              causal=causal, dropout=0.5)
            model = build_model(cfg, seed=21)
            feats = rng.normal(size=(40, 16)).astype(np.float32)
            ours = forward_full(model, feats)
            baseline = single_scale_forward(model, feats)
            for got, ref in zip(ours.logits, baseline):
                diff = np.abs(got.data - ref).max()
                assert diff == 0.0, f"max abs diff {diff} (causal={causal})"


@pytest.fixture(scope="module")
def synthetic_learning_env():
    # sigma 3 puts the class centers at (rescaled) exactly-4-sigma separation,
    # hard enough that the online model visibly over-segments while the
    # offline decoders clean it up
    synth = SynthConfig(num_classes=7, num_videos=50, t_min=200, t_max=400,
                        feature_dim=64, noise_sigma=3.0, self_transition_prob=0.97,
                        skip_prob=0.1, seed=424242)
    return generate_synthetic(synth)


def _fit_and_score(train_set, test_set, num_decoders, causal, epochs):
    cfg = ModelConfig(input_dim=64, num_classes=7, kernels=(3, 5, 17),
                      layers_per_stage=10, feature_maps=64,
                      num_decoders=num_decoders, causal=causal, dropout=0.5)
    model = build_model(cfg, seed=7)
    tc = TrainConfig(epochs=epochs, learning_rate=5e-4, seed=100)
    train(model, train_set, tc, AdamState.init(model))
    reports = [evaluate_video(predict(model, s.features), s.labels, 7, s.id)
               for s in test_set]
    return aggregate(reports)


@pytest.mark.slow
def test_criterion_9_synthetic_learning(synthetic_learning_env):
    train_set, test_set, _ = synthetic_learning_env
    with criterion(9, "synthetic learning, offline + online"):
        assert len(train_set) == 40 and len(test_set) == 10
        offline = _fit_and_score(train_set, test_set, num_decoders=3, causal=False, epochs=4)
        print(f"  MS-AST : acc={offline.accuracy:.2f} edit={offline.edit:.2f} "
              f"f1_avg={offline.f1_avg:.2f}")
        online = _fit_and_score(train_set, test_set, num_decoders=1, causal=True, epochs=4)
        print(f"  MS-ASCT: acc={online.accuracy:.2f} edit={online.edit:.2f} "
              f"f1_avg={online.f1_avg:.2f}")
        assert offline.accuracy >= 95.0
        assert offline.edit >= 80.0
        assert online.accuracy >= 90.0
        assert offline.edit >= online.edit, \
            "offline refinement should not over-segment more than the online model"


def test_criterion_10_training_determinism(stream_env):
    root, _, config, _ = stream_env
    with criterion(10, "byte-identical checkpoints for identical config+seed"):
        first, second = root / "det_a.ckpt", root / "det_b.ckpt"
        assert run_cli("train", "--config", config, "--out", first) == 0
        assert run_cli("train", "--config", config, "--out", second) == 0
        assert first.read_bytes() == second.read_bytes()
        model, _ = load_checkpoint(first)
        assert model.cfg.num_decoders == 3 and not model.cfg.causal
