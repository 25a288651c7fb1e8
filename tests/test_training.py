import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from msast import numerics as nx
from msast import training
from msast.data import SynthConfig, VideoSample, generate_synthetic
from msast.errors import DataError, FileFormatError, ModeError, NumericError, ResourceError, ShapeError
from msast.model import ModelConfig, StageOutputs, build_model, forward_full, predict
from msast.numerics import Parameter, as_tensor
from msast.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    load_checkpoint,
    save_checkpoint,
    smoothing_loss,
    total_loss,
    train,
)

from tests.oracles import weight_buffer


# --- cross entropy ------------------------------------------------------------

def test_ce_uniform_logits_is_log_c():
    logits = as_tensor(np.zeros((5, 7)))
    loss = cross_entropy_loss(logits, np.zeros(5, dtype=int))
    assert loss.item() == pytest.approx(math.log(7), abs=1e-4)


def test_ce_confident_correct_is_near_zero():
    logits = np.full((4, 3), -100.0)
    labels = np.array([0, 1, 2, 1])
    logits[np.arange(4), labels] = 100.0
    assert cross_entropy_loss(as_tensor(logits), labels).item() == pytest.approx(0.0, abs=1e-6)


def test_ce_two_frame_closed_form():
    logits = as_tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = cross_entropy_loss(logits, np.array([0, 1]))
    sigma = math.e / (math.e + 1)
    assert loss.item() == pytest.approx(-math.log(sigma), abs=1e-4)


def test_ce_rejects_out_of_range_label():
    with pytest.raises(DataError, match="frame 1"):
        cross_entropy_loss(as_tensor(np.zeros((3, 2))), np.array([0, 5, 1]))


# --- smoothing loss -------------------------------------------------------------

def test_smoothing_constant_logits_zero(rng):
    row = rng.normal(size=4)
    logits = as_tensor(np.tile(row, (6, 1)))
    assert smoothing_loss(logits, 4.0).item() == pytest.approx(0.0, abs=1e-12)


def test_smoothing_clips_at_tau_squared():
    # symmetric flip [L,0] -> [0,L] makes both per-class log-prob gaps
    # exactly L; with L = tau the clip boundary contributes tau^2.
    tau = 4.0
    logits = as_tensor(np.array([[tau, 0.0], [0.0, tau]]))
    assert smoothing_loss(logits, tau).item() == pytest.approx(tau ** 2, abs=1e-5)
    # far beyond the boundary it stays clipped at tau^2
    logits = as_tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
    assert smoothing_loss(logits, tau).item() == pytest.approx(tau ** 2, abs=1e-5)


def test_smoothing_matches_direct_formula(rng):
    logits = rng.normal(size=(3, 5)) * 3
    tau = 1.5
    z = logits - logits.max(axis=1, keepdims=True)
    lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    floored = np.maximum(lsm, np.log(1e-8))
    expected = np.minimum(np.abs(floored[1:] - floored[:-1]), tau) ** 2
    got = smoothing_loss(as_tensor(logits), tau).item()
    assert got == pytest.approx(expected.mean(), abs=1e-10)


def test_smoothing_single_frame_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        loss = smoothing_loss(as_tensor(np.zeros((1, 3))), 4.0)
    assert loss.item() == 0.0


# --- total loss --------------------------------------------------------------------

def test_total_loss_single_stage_lambda_zero(rng):
    logits = as_tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 4, size=6)
    cfg = TrainConfig(smooth_lambda=0.0)
    got = total_loss(StageOutputs([logits]), labels, cfg).item()
    assert got == pytest.approx(cross_entropy_loss(logits, labels).item())


def test_total_loss_four_identical_stages(rng):
    logits = as_tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 4, size=6)
    cfg = TrainConfig()
    single = total_loss(StageOutputs([logits]), labels, cfg).item()
    quad = total_loss(StageOutputs([logits] * 4), labels, cfg).item()
    assert quad == pytest.approx(4 * single, rel=1e-6)


def test_total_loss_mixed_stages_componentwise(rng):
    stage_a = as_tensor(rng.normal(size=(6, 4)))
    stage_b = as_tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 4, size=6)
    cfg = TrainConfig(smooth_tau=2.0, smooth_lambda=0.3)
    expected = sum(
        cross_entropy_loss(s, labels).item() + 0.3 * smoothing_loss(s, 2.0).item()
        for s in (stage_a, stage_b))
    got = total_loss(StageOutputs([stage_a, stage_b]), labels, cfg).item()
    assert got == pytest.approx(expected, rel=1e-6)


def _loss_digest(loss_of, T=129, stages=4):
    """The SHA-256 of `loss_of(stages, labels)` and of each stage's gradient
    after backward, on seeded float32 logit leaves wide enough that log-probs
    pass the floor and deltas pass tau."""
    rng = np.random.default_rng(21)
    logits = [Parameter((8 * rng.normal(size=(T, 7))).astype(np.float32), f"s{i}")
              for i in range(stages)]
    labels = rng.integers(0, 7, size=T)
    loss = loss_of(logits, labels)
    loss.backward()
    h = hashlib.sha256(loss.data.tobytes())
    for s in logits:
        h.update(b"-" if s.grad is None else s.grad.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("loss_of, T, stages, digest", [
    (lambda s, y: total_loss(StageOutputs(s), y, TrainConfig()), 129, 4,
     "ca1d8d2371011a22fd5704ee72f1430c8f53fc01d6393840a1b681b8bcd0c461"),
    (lambda s, y: total_loss(StageOutputs(s), y, TrainConfig(smooth_lambda=0.0)), 129, 4,
     "fd1753ea1ff3c51109776a9237a1af2626b4f1d9a9860b35972960171b342344"),
    (lambda s, y: cross_entropy_loss(s[0], y), 129, 1,
     "05443a52e5bd2c118fbf67647dd9ca04e90affb09aac4290a0d6db9f80fa73a8"),
    (lambda s, y: smoothing_loss(s[0], 4.0), 129, 1,
     "5c3c1b8a95d7386b78c85a7895ef2f6c45b50ac5d4e9aa687409d8a0f16f6440"),
], ids=["total", "total-lambda0", "cross-entropy", "smoothing"])
def test_loss_bytes_are_pinned(loss_of, T, stages, digest):
    """The loss and each stage's logits gradient are bit-identical to the
    ones they were pinned on."""
    assert _loss_digest(loss_of, T, stages) == digest


def test_single_frame_smoothing_bytes_are_pinned():
    with pytest.warns(UserWarning, match="T >= 2"):
        digest = _loss_digest(lambda s, y: smoothing_loss(s[0], 4.0), T=1, stages=1)
    assert digest == "ce2460cd51397dfd738e38ccfaaae93dede2f5be24da93debf4466b2af44eaec"


# --- adam ---------------------------------------------------------------------------

def _lone_param(value):
    p = Parameter(np.asarray(value, dtype=np.float64), "p")
    return p, AdamState(np.zeros((2, p.data.size)))


def test_adam_first_step_closed_form():
    p, state = _lone_param([0.0])
    p.grad = np.asarray([1.0])
    adam_step([p], state, lr=1e-4)
    assert p.data[0] == pytest.approx(-1e-4, abs=1e-8)
    assert state.step == 1
    assert p.grad is None


def test_adam_zero_gradient_no_change():
    p, state = _lone_param([1.5])
    p.grad = np.asarray([0.0])
    adam_step([p], state, lr=1e-2)
    assert p.data[0] == 1.5
    assert state.step == 1


def test_adam_constant_gradient_stable_steps():
    p, state = _lone_param([0.0])
    p.grad = np.asarray([2.0])
    adam_step([p], state, lr=1e-3)
    first = abs(p.data[0])
    before = p.data[0]
    p.grad = np.asarray([2.0])
    adam_step([p], state, lr=1e-3)
    second = abs(p.data[0] - before)
    assert second == pytest.approx(first, rel=0.01)


def test_adam_constants_are_adam_step_defaults_not_config_fields():
    assert {f.name for f in dataclasses.fields(TrainConfig)} == {
        "epochs", "learning_rate", "smooth_tau", "smooth_lambda", "seed"}
    assert (TrainConfig.adam_betas, TrainConfig.adam_eps) == adam_step.__defaults__


def test_adam_rejects_non_finite_gradient():
    p, state = _lone_param([0.0])
    p.grad = np.asarray([np.nan])
    with pytest.raises(NumericError, match="p"):
        adam_step([p], state, lr=1e-3)


def test_adam_non_finite_gradient_updates_nothing():
    params = [Parameter(np.full(3, float(i)), f"p{i}") for i in range(4)]
    state = AdamState(np.zeros((2, 12)))
    for p in params:
        p.grad = np.arange(3.0) + 1
    adam_step(params, state, lr=1e-3)
    for p in params:
        p.grad = np.ones(3)
    params[-1].grad[1] = np.nan
    before = [p.data.copy() for p in params], state.moments.copy()
    with pytest.raises(NumericError, match="p3"):
        adam_step(params, state, lr=1e-3)
    assert state.step == 1
    for p, data in zip(params, before[0]):
        np.testing.assert_array_equal(p.data, data)
    np.testing.assert_array_equal(state.moments, before[1])


@pytest.mark.parametrize("values", [11, 13], ids=["fewer", "more"])
def test_adam_rejects_moments_of_another_size_before_any_update(values):
    params = [Parameter(np.full(3, float(i)), f"p{i}") for i in range(4)]
    state = AdamState(np.zeros((2, values)))
    for p in params:
        p.grad = np.ones(3)
    with pytest.raises(ShapeError, match=re.escape(f"shape (2, {values}) do not fit 4 "
                                                   "parameters of 12 values; expected (2, 12)")):
        adam_step(params, state, lr=1e-3)
    assert state.step == 0 and not state.moments.any()
    assert all((p.data == i).all() and p.grad is not None for i, p in enumerate(params))


def test_adam_init_moments_are_views_of_one_buffer_in_layout_order():
    model = _toy_model()
    params = model.parameters()
    state = AdamState.init(model)
    moments = state.moments
    assert moments.shape == (2, model.weights.size) and moments.dtype == model.dtype
    assert moments.flags.owndata and not moments.any()
    # one step at lr 0 leaves m = 0.1 g and v = 0.001 g^2, each parameter's
    # slot where its values sit in the weight buffer
    grads = [np.arange(p.data.size, dtype=p.data.dtype).reshape(p.data.shape) + i
             for i, p in enumerate(params)]
    for p, g in zip(params, grads):
        p.grad = g.copy()
    adam_step(params, state, lr=0.0)
    assert state.moments is moments
    flat = np.concatenate([g.ravel() for g in grads])
    np.testing.assert_array_equal(moments[0], np.float32(1.0 - 0.9) * flat)
    np.testing.assert_array_equal(moments[1], np.float32(1.0 - 0.999) * (flat * flat))


def _python(script: str, **env) -> str:
    """The stdout of `script`, run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(training.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


_ADAM_INIT = """
import resource
from msast.model import ModelConfig, build_model
from msast.training import AdamState
model = build_model(ModelConfig(input_dim=64, num_classes=7), seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
state = AdamState.init(model)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_adam_init_moments_cost_no_memory_until_written():
    """The default offline model's 52 MB of zero moments leave the peak
    resident size of a fresh process where it was (32 MB more while each
    parameter's moments were allocated on their own)."""
    grown_kb = int(_python(_ADAM_INIT))
    assert grown_kb < 4 * 1024, f"AdamState.init grew the peak resident size by {grown_kb} KB"


# --- training loop ---------------------------------------------------------------------

def _toy_dataset(seed=0, videos=2, T=40):
    cfg = SynthConfig(num_classes=3, num_videos=videos, t_min=T, t_max=T,
                      feature_dim=6, noise_sigma=0.3, self_transition_prob=0.9,
                      skip_prob=0.0, seed=seed)
    train_set, test_set, _ = generate_synthetic(cfg)
    return train_set + test_set


def _toy_model(seed=0, causal=False):
    cfg = ModelConfig(input_dim=6, num_classes=3, kernels=(3, 5), layers_per_stage=2,
                      feature_maps=8, num_decoders=1, causal=causal, dropout=0.3)
    return build_model(cfg, seed=seed)


def test_train_lr_zero_leaves_parameters_untouched():
    model = _toy_model()
    before = {p.name: p.data.copy() for p in model.parameters()}
    train(model, _toy_dataset(), TrainConfig(epochs=2, learning_rate=0.0, seed=1))
    for p in model.parameters():
        assert np.array_equal(p.data, before[p.name]), p.name


def test_train_deterministic_checkpoints(tmp_path):
    paths = []
    for run in range(2):
        model = _toy_model(seed=7)
        state = AdamState.init(model)
        train(model, _toy_dataset(seed=3), TrainConfig(epochs=2, seed=11), state)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, state, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_overfit_history_and_monotone_loss():
    # 1-video overfit: dropout off so the loss trajectory is the pure Adam
    # descent; 200 epochs reach 100% frame accuracy with >= 90% of epoch
    # transitions non-increasing.
    cfg = ModelConfig(input_dim=6, num_classes=3, kernels=(3, 5), layers_per_stage=2,
                      feature_maps=8, num_decoders=1, causal=False, dropout=0.0)
    model = build_model(cfg, seed=2)
    dataset = _toy_dataset(seed=9, videos=1, T=60)
    history = train(model, dataset, TrainConfig(epochs=200, learning_rate=5e-4, seed=4))

    sample = dataset[0]
    accuracy = (predict(model, sample.features) == sample.labels).mean()
    assert accuracy == 1.0

    lines = history.to_text().strip().split("\n")
    assert len(lines) == 200
    parts = lines[0].split()
    assert parts[0] == "epoch" and parts[1] == "1" and parts[2] == "loss" and parts[4] == "acc"

    losses = [e.loss for e in history.epochs]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
    assert drops >= 0.9 * (len(losses) - 1), "loss should be non-increasing for >=90% of transitions"


def test_train_aborts_on_non_finite_loss_with_identifiers():
    # features large enough to overflow float32 through the attention logits
    model = _toy_model(seed=3)
    sample = VideoSample(id="video_bad",
                         features=np.full((20, 6), 1e20, dtype=np.float32),
                         labels=np.zeros(20, dtype=np.int64))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=r"epoch 1.*video_bad"):
        train(model, [sample], TrainConfig(epochs=1, seed=0))


def test_train_rejects_empty_and_mismatched_data():
    model = _toy_model()
    with pytest.raises(DataError):
        train(model, [], TrainConfig(epochs=1))
    bad = VideoSample(id="bad", features=np.zeros((10, 5), dtype=np.float32),
                      labels=np.zeros(10, dtype=np.int64))
    with pytest.raises(Exception):
        train(model, [bad], TrainConfig(epochs=1))


def _train_state_bytes(model, state):
    return ([p.data.tobytes() for p in model.parameters()],
            state.moments.tobytes(), state.step)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("defect", ["one_frame", "label_out_of_range"])
def test_train_rejects_bad_sample_before_any_step(seed, defect):
    # the bad video lands at a different place in each seed's shuffle; no
    # video shuffled ahead of it may move the model or the Adam moments
    model = _toy_model()
    state = AdamState.init(model)
    dataset = _toy_dataset(videos=5, T=20)
    bad = dataset[2]
    if defect == "one_frame":
        dataset[2] = VideoSample(bad.id, bad.features[:1], bad.labels[:1])
        error = ShapeError
    else:
        dataset[2] = VideoSample(bad.id, bad.features, np.where(bad.labels == 0, 3, bad.labels))
        error = DataError
    before = _train_state_bytes(model, state)
    with pytest.raises(error, match=f"video {bad.id}: "):
        train(model, dataset, TrainConfig(epochs=1, seed=seed), state)
    assert _train_state_bytes(model, state) == before


# --- grad mode across threads -------------------------------------------------------------

def _in_threads(*targets, timeout=120.0):
    """Run each target in its own thread while the interpreter switches
    threads as often as it can, and re-raise the first error a target raised."""
    errors = []

    def guarded(target):
        try:
            target()
        except Exception as exc:  # raised again in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), f"a thread ran past {timeout} s"
    if errors:
        raise errors[0]


def test_grad_mode_is_on_after_concurrent_predict():
    model = _toy_model()
    features = _toy_dataset()[0].features

    def predicts():
        for _ in range(30):
            predict(model, features)

    p = model.parameters()[0]
    for trial in range(3):
        _in_threads(*[predicts] * 4)
        assert nx.add(p, p).requires_grad, f"trial {trial} left grad mode off"


def _grad_digest(loss, params) -> str:
    """SHA-256 of the loss and of every parameter's gradient, in order ('-'
    for a parameter with none)."""
    h = hashlib.sha256(loss.data.tobytes())
    for p in params:
        h.update(p.name.encode() + (b"-" if p.grad is None else p.grad.tobytes()))
    return h.hexdigest()


def _step_digests(model, dataset) -> list[str]:
    """The loss and gradient SHA-256 of one forward and backward per sample."""
    rng = np.random.default_rng(5)
    digests = []
    for sample in dataset:
        loss = total_loss(forward_full(model, sample.features, mode="train", rng=rng),
                          sample.labels, TrainConfig())
        loss.backward()
        digests.append(_grad_digest(loss, model.parameters()))
        for p in model.parameters():
            p.grad = None
    return digests


def test_predict_in_another_thread_leaves_train_steps_alone():
    dataset = _toy_dataset(videos=4)
    alone = _step_digests(_toy_model(), dataset)
    model, other = _toy_model(), _toy_model(seed=1)
    stop = threading.Event()
    beside = []

    def predicts():
        while not stop.is_set():
            predict(other, dataset[0].features)

    def steps():
        try:
            beside.append(_step_digests(model, dataset))
        finally:
            stop.set()

    _in_threads(predicts, steps)
    assert beside == [alone]


def test_train_under_no_grad_raises_and_changes_nothing():
    model = _toy_model()
    state = AdamState.init(model)
    before = _train_state_bytes(model, state)
    with nx.no_grad(), pytest.raises(ModeError, match="grad mode is off"):
        train(model, _toy_dataset(), TrainConfig(epochs=1), state)
    assert _train_state_bytes(model, state) == before


# --- checkpoints --------------------------------------------------------------------------

def _fresh(seed=0):
    model = _toy_model(seed=seed)
    return model, AdamState.init(model)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model, state = _fresh(seed=3)
    state.step = 17
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(model, state, first)
    loaded_model, loaded_state = load_checkpoint(first)
    save_checkpoint(loaded_model, loaded_state, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded_state.step == 17


def test_checkpoint_preserves_forward_exactly(tmp_path, rng):
    model, state = _fresh(seed=4)
    feats = rng.normal(size=(20, 6)).astype(np.float32)
    before = forward_full(model, feats).final().copy()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    loaded, _ = load_checkpoint(path)
    after = forward_full(loaded, feats).final()
    assert np.array_equal(before, after)


PINNED = {
    "offline": ModelConfig(input_dim=8, num_classes=4, kernels=(3, 5), layers_per_stage=3,
                           feature_maps=8, num_decoders=2),
    "causal": ModelConfig(input_dim=8, num_classes=4, kernels=(3, 5), layers_per_stage=3,
                          feature_maps=8, num_decoders=1, causal=True, dropout=0.25,
                          alpha_base=3.0),
}


@pytest.mark.parametrize("name, digest", [
    ("offline", "a4781c064f395379e8d15a3df17c0dcc4997b818c38a16312ea830ad68372d77"),
    ("causal", "454f3f8ee4d9ddcbb9682a204ea22648f18c53092b38167e6f67dda77654fab9"),
], ids=["offline", "causal"])
def test_checkpoint_bytes_are_pinned(tmp_path, name, digest):
    model = build_model(PINNED[name], 7)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState.init(model), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("offline", "ccf5544fb14e403fdedd69298ae37e16ad38848f66feccc89c5e2fb654ff1147"),
    ("causal", "e3ca3f5e47f9e991e8cf0501ac7ed3c4197853226de8e2f6c61243e081ca8f6f"),
], ids=["offline", "causal"])
def test_trained_checkpoint_bytes_are_pinned(tmp_path, name, digest):
    """Two train steps at T=50, each on features and labels freshly drawn
    from the generator that then drives dropout: the checkpoint, non-zero
    moments included, is bit-identical to the one it was pinned on."""
    cfg = PINNED[name]
    model = build_model(cfg, 7)
    state = AdamState.init(model)
    rng = np.random.default_rng(11)
    for _ in range(2):
        feats = rng.normal(size=(50, cfg.input_dim)).astype(np.float32)
        labels = rng.integers(0, cfg.num_classes, size=50)
        total_loss(forward_full(model, feats, mode="train", rng=rng), labels,
                   TrainConfig()).backward()
        adam_step(model.parameters(), state, lr=1e-3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name, T, digest", [
    ("offline", 50, "6e0dba34bd497df447faef0359f1f7046166cebff98ad9805feacc771040806c"),
    ("causal", 50, "13cee342c10e2f88494743d6c43494371666cc168e62ce7777d479065acde9aa"),
    ("offline", 129, "33250a5bf641d34f2c7d6704fadb060e706d6407a68b0ba92fbb6aec20e52241"),
    ("causal", 129, "2568ee63f0fbc64a60923b297e93ff0b77fc5c0f9809ba55b71d6bc4448d6056"),
], ids=["offline", "causal", "offline-T129", "causal-T129"])
def test_train_step_gradient_bytes_are_pinned(name, T, digest):
    """One forward, loss and backward: the loss and every gradient, in
    layout order, are bit-identical to the tape they were pinned on. T=50
    is one 64-row attention query chunk; T=129 is three, so chunk edges and
    the sliced window mask are pinned too."""
    cfg = PINNED[name]
    model = build_model(cfg, 7)
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(T, cfg.input_dim)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=T)
    loss = total_loss(forward_full(model, feats, mode="train", rng=np.random.default_rng(12)),
                      labels, TrainConfig())
    loss.backward()
    assert _grad_digest(loss, model.parameters()) == digest


_STEP_DIGEST = """
import hashlib
import numpy as np
from msast.model import ModelConfig, build_model, forward_full
from msast.training import TrainConfig, total_loss
model = build_model(ModelConfig(input_dim=64, num_classes=7), seed=0)
rng = np.random.default_rng(0)
feats = rng.normal(size=(300, 64)).astype(np.float32)
labels = rng.integers(0, 7, size=300)
loss = total_loss(forward_full(model, feats, mode="train", rng=rng), labels, TrainConfig())
loss.backward()
h = hashlib.sha256(loss.data.tobytes())
for p in model.parameters():
    h.update(p.name.encode() + (b"-" if p.grad is None else p.grad.tobytes()))
print(h.hexdigest())
"""


def test_train_step_bytes_do_not_depend_on_blas_threads():
    """One default offline train step at T=300 gives the same loss and
    gradient bytes at 1 and 2 OpenBLAS threads, so byte-identical training
    (criterion 10) holds across such machines for videos of that length.
    At T=449 and T=2000 it does not: from an inner dimension of 449,
    OpenBLAS may sum a GEMM in an order that depends on its thread count."""
    digests = {_python(_STEP_DIGEST, OPENBLAS_NUM_THREADS=str(n)) for n in (1, 2)}
    assert len(digests) == 1, digests


def test_checkpoint_save_streams_to_the_file(tmp_path):
    model = build_model(ModelConfig(input_dim=64, num_classes=7), seed=0)
    state = AdamState.init(model)
    path = tmp_path / "m.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(model, state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.1 * size, f"saving a {size / 1e6:.1f} MB checkpoint peaked at {peak / 1e6:.1f} MB"


def test_checkpoint_parameters_view_one_weight_buffer(tmp_path):
    model, state = _fresh(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    loaded, loaded_state = load_checkpoint(path)
    buf = weight_buffer(loaded)
    assert np.array_equal(buf, model.weights)
    assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
    freed = weakref.ref(buf)
    del loaded, loaded_state, buf  # the state's deferred moment read holds the parameters
    assert freed() is None, "the weight buffer outlived its model"


def test_failed_save_keeps_the_old_checkpoint_and_no_temporary_file(tmp_path, monkeypatch):
    model, state = _moments_filled(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    before = path.read_bytes()
    other, other_state = _moments_filled(seed=4)
    written, write_array = [], training._write_array

    def fail_midway(fh, name, arr):
        if len(written) == len(other.parameters()) + 3:  # into the first moment section
            raise KeyboardInterrupt
        written.append(name)
        write_array(fh, name, arr)

    monkeypatch.setattr(training, "_write_array", fail_midway)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(other, other_state, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    save_checkpoint(other, other_state, path)
    assert path.read_bytes() != before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("donor", ["larger", "smaller"])
def test_save_rejects_moments_of_another_model_before_writing(tmp_path, donor):
    model, state = _moments_filled(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    before = path.read_bytes()
    other = build_model(dataclasses.replace(model.cfg, feature_maps={"larger": 9, "smaller": 7}[donor]),
                        seed=0)
    size = model.weights.size
    with pytest.raises(ShapeError, match=re.escape(
            f"shape (2, {other.weights.size}) do not fit {len(model.parameters())} parameters of "
            f"{size} values; expected (2, {size})")):
        save_checkpoint(model, AdamState.init(other), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_weights_or_moments_that_cannot_be_allocated_name_the_step(tmp_path, monkeypatch):
    cfg = _toy_model().cfg

    def refuse(*args, **kwargs):
        raise MemoryError("refused")

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", refuse)
        with pytest.raises(ResourceError, match="allocating the weights"):
            build_model(cfg, seed=0)
    model = build_model(cfg, seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", refuse)
        with pytest.raises(ResourceError, match="allocating the Adam moments"):
            AdamState.init(model)
    # a loaded checkpoint allocates its moments when it first reads them
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState.init(model), path)
    _, state = load_checkpoint(path)
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", refuse)
        with pytest.raises(ResourceError, match="allocating the Adam moments"):
            state.moments


def test_checkpoint_load_reads_only_the_parameters(tmp_path):
    model = build_model(ModelConfig(input_dim=64, num_classes=7), seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState.init(model), path)
    param_bytes = sum(p.data.nbytes for p in model.parameters())
    del model
    tracemalloc.start()
    try:
        loaded, state = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * param_bytes, \
        f"loading {param_bytes / 1e6:.1f} MB of parameters peaked at {peak / 1e6:.1f} MB"
    assert state.step == 0


def _moments_filled(seed=0):
    model, state = _fresh(seed=seed)
    state.moments[...] = np.random.default_rng(seed).normal(size=state.moments.shape)
    state.step = 5
    return model, state


def test_checkpoint_moments_read_on_first_use(tmp_path, monkeypatch):
    model, state = _moments_filled(seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    _, loaded = load_checkpoint(path)
    assert loaded.step == 5
    reads, read_moments = [], training._read_moments
    monkeypatch.setattr(training, "_read_moments",
                        lambda *args: reads.append(args) or read_moments(*args))
    moments = loaded.moments
    assert loaded.moments is moments and len(reads) == 1  # read once, then kept
    # into one buffer, as AdamState.init lays the moments out
    assert moments.flags.owndata and moments.dtype == np.float32
    np.testing.assert_array_equal(moments, state.moments)


def test_checkpoint_resaved_to_its_own_path_is_identical(tmp_path):
    model, state = _moments_filled(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    before = path.read_bytes()
    loaded_model, loaded_state = load_checkpoint(path)
    save_checkpoint(loaded_model, loaded_state, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("change", ["rewritten", "replaced", "truncated"])
def test_checkpoint_changed_after_load_rejected_on_moment_access(tmp_path, change):
    model, state = _moments_filled(seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    _, loaded = load_checkpoint(path)
    other, other_state = _moments_filled(seed=5)
    if change == "rewritten":  # same size, same inode
        save_checkpoint(other, other_state, tmp_path / "new.ckpt")
        path.write_bytes((tmp_path / "new.ckpt").read_bytes())
    elif change == "replaced":
        save_checkpoint(other, other_state, tmp_path / "new.ckpt")
        os.replace(tmp_path / "new.ckpt", path)
    else:
        os.truncate(path, path.stat().st_size - 8)
    for _ in range(2):
        with pytest.raises(FileFormatError, match=re.escape(
                f"{os.path.realpath(path)}: changed since the checkpoint was loaded")):
            loaded.moments
    assert loaded.step == 5


def test_checkpoint_config_round_trip(tmp_path):
    cfg = ModelConfig(input_dim=5, num_classes=4, kernels=(3, 5, 17), layers_per_stage=3,
                      feature_maps=16, num_decoders=2, causal=True, dropout=0.25, alpha_base=1.5)
    model = build_model(cfg, seed=9)
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, AdamState.init(model), path)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg == cfg


@pytest.mark.parametrize("alpha_base", [1.7, 1.1])
def test_config_floats_are_the_float32_values_a_checkpoint_stores(tmp_path, rng, alpha_base):
    """The header stores dropout and alpha_base as float32; a config holds
    those values, so a loaded model computes the bytes the saved one did."""
    cfg = ModelConfig(input_dim=6, num_classes=4, kernels=(3, 5), layers_per_stage=3,
                      feature_maps=8, num_decoders=3, dropout=0.3, alpha_base=alpha_base)
    assert (cfg.dropout, cfg.alpha_base) == (float(np.float32(0.3)), float(np.float32(alpha_base)))
    model = build_model(cfg, seed=2)
    feats = rng.normal(size=(40, 6)).astype(np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState.init(model), path)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg == cfg
    assert forward_full(loaded, feats).final().tobytes() == forward_full(model, feats).final().tobytes()


@pytest.mark.parametrize("field, value, message", [
    ("dropout", 0.99999999, "dropout must be in [0, 1) as a float32, got 0.99999999"),
    ("alpha_base", 1e39, "alpha_base must be finite and > 0 as a float32, got 1e+39"),
    ("alpha_base", 1e-46, "alpha_base must be finite and > 0 as a float32, got 1e-46"),
])
def test_config_judges_the_float32_value_and_names_the_given_one(field, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = ModelConfig(input_dim=6, num_classes=4, **{field: value})
    assert cfg.violations() == [message]


def test_checkpoint_bad_magic_rejected(tmp_path):
    model, state = _fresh()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version_rejected(tmp_path):
    model, state = _fresh()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    model, state = _fresh()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FileFormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    model, state = _fresh()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FileFormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_shape_disagreement_rejected(tmp_path):
    model, state = _fresh()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    blob = bytearray(path.read_bytes())
    # feature_maps lives after magic(8) + version(4) + kernel count(4) + two kernels(8) + layers(4)
    offset = 8 + 4 + 4 + 8 + 4
    blob[offset:offset + 4] = (12).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError):
        load_checkpoint(path)


def test_checkpoint_model_too_big_for_memory_rejected_before_any_entry(tmp_path, monkeypatch):
    model, state = _fresh()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    blob = bytearray(path.read_bytes())
    offset = 8 + 4 + 4 + 8 + 4  # feature_maps, as above
    blob[offset:offset + 4] = (99999999).to_bytes(4, "little")
    path.write_bytes(bytes(blob))

    def sized(*args, **kwargs):
        raise AssertionError("an entry was sized")

    monkeypatch.setattr(training, "_read_entry", sized)
    with pytest.raises(FileFormatError, match="GiB of physical memory"):
        load_checkpoint(path)


# --- gradient check of total loss (invariant) ------------------------------------------------

def test_total_loss_gradient_matches_finite_differences(rng):
    from tests.oracles import capture_smooth_prev, finite_diff_check, frozen_total_loss

    cfg = ModelConfig(input_dim=3, num_classes=3, kernels=(3,), layers_per_stage=2,
                      feature_maps=6, num_decoders=1, causal=True, dropout=0.0)
    model = build_model(cfg, seed=5, dtype=np.float64)
    feats = rng.normal(size=(10, 3))
    labels = rng.integers(0, 3, size=10)
    tc = TrainConfig()
    frozen = capture_smooth_prev(forward_full(model, feats, mode="train"))

    def f():
        return frozen_total_loss(forward_full(model, feats, mode="train"), labels, tc, frozen)

    assert finite_diff_check(f, model.parameters(), eps=1e-5) <= 1e-4
