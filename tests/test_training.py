import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from msast import training
from msast.data import SynthConfig, VideoSample, generate_synthetic
from msast.errors import DataError, FileFormatError, NumericError, ResourceError, ShapeError
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


# --- adam ---------------------------------------------------------------------------

def _lone_param(value):
    p = Parameter(np.asarray(value, dtype=np.float64), "p")
    state = AdamState(m={"p": np.zeros_like(p.data)}, v={"p": np.zeros_like(p.data)})
    return p, state


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
    state = AdamState(m={p.name: np.zeros(3) for p in params},
                      v={p.name: np.zeros(3) for p in params})
    for p in params:
        p.grad = np.arange(3.0) + 1
    adam_step(params, state, lr=1e-3)
    for p in params:
        p.grad = np.ones(3)
    params[-1].grad[1] = np.nan
    before = [(p.data.copy(), state.m[p.name].copy(), state.v[p.name].copy()) for p in params]
    with pytest.raises(NumericError, match="p3"):
        adam_step(params, state, lr=1e-3)
    assert state.step == 1
    for p, (data, m, v) in zip(params, before):
        np.testing.assert_array_equal(p.data, data)
        np.testing.assert_array_equal(state.m[p.name], m)
        np.testing.assert_array_equal(state.v[p.name], v)


def test_adam_init_moments_are_views_of_one_buffer_in_layout_order():
    model = _toy_model()
    params = model.parameters()
    state = AdamState.init(model)
    views = [*state.m.values(), *state.v.values()]
    assert list(state.m) == list(state.v) == [p.name for p in params]
    base = views[0].base
    assert all(a.base is base and a.shape == p.data.shape and not a.any()
               for a, p in zip(views, params * 2))
    base[...] = np.arange(base.size).reshape(base.shape)
    assert np.array_equal(np.concatenate([a.ravel() for a in views]), np.arange(base.size))


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
            [a.tobytes() for a in (*state.m.values(), *state.v.values())], state.step)


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
    ("offline", "6e0dba34bd497df447faef0359f1f7046166cebff98ad9805feacc771040806c"),
    ("causal", "13cee342c10e2f88494743d6c43494371666cc168e62ce7777d479065acde9aa"),
], ids=["offline", "causal"])
def test_train_step_gradient_bytes_are_pinned(name, digest):
    """One forward, loss and backward at T=50: the loss and every gradient,
    in layout order, are bit-identical to the tape they were pinned on."""
    cfg = PINNED[name]
    model = build_model(cfg, 7)
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(50, cfg.input_dim)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=50)
    loss = total_loss(forward_full(model, feats, mode="train", rng=np.random.default_rng(12)),
                      labels, TrainConfig())
    loss.backward()
    h = hashlib.sha256(loss.data.tobytes())
    for p in model.parameters():
        h.update(p.name.encode() + (b"-" if p.grad is None else p.grad.tobytes()))
    assert h.hexdigest() == digest


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


def test_loaded_parameters_view_one_weight_buffer(tmp_path):
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
            state.m


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
    rng = np.random.default_rng(seed)
    for section in (state.m, state.v):
        for value in section.values():
            value[...] = rng.normal(size=value.shape)
    state.step = 5
    return model, state


def test_checkpoint_moments_read_on_first_use(tmp_path):
    model, state = _moments_filled(seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, state, path)
    _, loaded = load_checkpoint(path)
    assert loaded.step == 5
    for saved, read in ((state.m, loaded.m), (state.v, loaded.v)):
        assert list(read) == [p.name for p in model.parameters()]
        for name, value in saved.items():
            assert read[name].dtype == np.float32
            np.testing.assert_array_equal(read[name], value)
    assert loaded.m is loaded.m  # read once, then kept
    # into views of one buffer, as AdamState.init lays the moments out
    base = next(iter(loaded.m.values())).base
    assert all(a.base is base for a in [*loaded.m.values(), *loaded.v.values()])


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
            loaded.v
    assert loaded.step == 5


def test_checkpoint_config_round_trip(tmp_path):
    cfg = ModelConfig(input_dim=5, num_classes=4, kernels=(3, 5, 17), layers_per_stage=3,
                      feature_maps=16, num_decoders=2, causal=True, dropout=0.25, alpha_base=1.5)
    model = build_model(cfg, seed=9)
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, AdamState.init(model), path)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg == cfg


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
