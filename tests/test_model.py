import io
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msast import model as mdl
from msast import numerics as nx
from msast.attention import WindowSpec, sliding_window_attention
from msast.errors import ConfigError, ModeError, NumericError, ShapeError
from msast.model import (
    ModelConfig,
    StreamState,
    alpha_schedule,
    block_forward,
    build_model,
    check_input,
    forward_full,
    forward_stream,
    predict,
)
from msast.numerics import Parameter, as_tensor

from tests.oracles import per_tap_conv_last_row, weight_buffer
from tests.single_scale_reference import single_scale_forward
from tests.test_attention import plain_attention

TINY = dict(input_dim=4, num_classes=3, kernels=(3, 5), layers_per_stage=2,
            feature_maps=8, num_decoders=1, dropout=0.0)


def tiny_model(causal=False, seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides, "causal": causal})
    return build_model(cfg, seed=seed)


# --- alpha schedule / fusion ----------------------------------------------------

def test_alpha_schedule_values():
    assert alpha_schedule(1, 2.0) == 1.0
    assert alpha_schedule(2, 2.0) == 0.5
    assert alpha_schedule(3, 2.0) == 0.25


def test_alpha_schedule_rejects_zero_index():
    with pytest.raises(ConfigError):
        alpha_schedule(0, 2.0)


def _branch_term(rng, weight, w=5):
    """One random attention call's output at `weight`, and at a unit weight."""
    q, k, v = (as_tensor(rng.normal(size=(6, 4))) for _ in range(3))
    spec = WindowSpec(window_size=w, causal=False)
    term = sliding_window_attention(q, k, v, spec, Parameter(np.asarray(weight), "w"))
    return term, plain_attention(q, k, v, spec)


def test_fuse_zero_weights_is_identity(rng):
    h = as_tensor(rng.normal(size=(6, 4)))
    out = h
    for w in (1, 5, 16):
        out = nx.add(out, _branch_term(rng, 0.0, w=w)[0])
    assert np.array_equal(out.data, h.data)


def test_fuse_alpha_zero_is_identity(rng, monkeypatch):
    # at alpha 0 the block's fused sum is h_base, in layer 1 (mix * V) and past it (the kernel)
    model = tiny_model()
    blk = model.decoders[0].blocks[0]
    for br in blk.branches:
        br.mix.data[...] = 2.0
    x, enc_out = (as_tensor(rng.normal(size=(6, 8)).astype(np.float32)) for _ in range(2))
    for layer in (1, 2):
        sums = []

        def record(a, b, _add=nx.add):
            sums.append((a, _add(a, b)))
            return sums[-1][1]

        monkeypatch.setattr(nx, "add", record)
        block_forward(x, enc_out, blk, layer, 0.0, model.cfg)
        monkeypatch.undo()
        h_base, fused = sums[0][0], sums[len(blk.branches) - 1][1]
        assert np.array_equal(fused.data, h_base.data)


def test_fuse_single_scale_unit_weight(rng):
    h = as_tensor(rng.normal(size=(6, 4)))
    term, attn = _branch_term(rng, 1.0)
    np.testing.assert_array_equal(nx.add(h, term).data, h.data + attn.data)


def test_fuse_length_mismatch(rng):
    model = tiny_model()
    blk = model.encoder.blocks[0]
    x = as_tensor(rng.normal(size=(6, 8)).astype(np.float32))
    for branches in (blk.branches[:1], blk.branches + blk.branches[:1]):
        with pytest.raises(ShapeError):
            block_forward(x, None, replace(blk, branches=branches), 1, 1.0, model.cfg)


# --- config validation ------------------------------------------------------------

def test_config_validation_lists_all_violations():
    cfg = ModelConfig(input_dim=0, num_classes=1, kernels=(5, 3), layers_per_stage=0,
                      num_decoders=0, dropout=1.5)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    message = str(err.value)
    for fragment in ("input_dim", "num_classes", "kernels", "layers_per_stage",
                     "num_decoders", "dropout"):
        assert fragment in message


def test_config_rejects_even_kernels_only_when_acausal():
    bad = ModelConfig(input_dim=4, num_classes=3, kernels=(3, 4), causal=False)
    assert any("odd" in p for p in bad.violations())
    ok = ModelConfig(input_dim=4, num_classes=3, kernels=(3, 4), causal=True)
    assert not ok.violations()


def _limits_faked(monkeypatch, rlimits: dict, files: dict):
    """Let `memory_limit` see the soft limits `rlimits` (name -> bytes) and
    read `files` (path -> text) in place of those files, and nothing else
    faked before."""
    monkeypatch.undo()
    real_getrlimit, real_open = mdl.resource.getrlimit, open

    def getrlimit(which):
        for name, soft in rlimits.items():
            if which == getattr(mdl.resource, name):
                return soft, mdl.resource.RLIM_INFINITY
        return real_getrlimit(which)

    def fake_open(path, *args, **kwargs):
        return io.StringIO(files[path]) if path in files else real_open(path, *args, **kwargs)

    monkeypatch.setattr(mdl.resource, "getrlimit", getrlimit)
    monkeypatch.setattr(mdl, "open", fake_open, raising=False)


def test_memory_bound_reads_process_and_cgroup_limits(monkeypatch):
    cfg = ModelConfig(input_dim=64, num_classes=7)
    need = 12 * cfg.parameter_count()[0]
    page = os.sysconf("SC_PAGE_SIZE")
    statm = {"/proc/self/statm": f"{(1 << 30) // page} 0 0 0 0 {(1 << 29) // page} 0\n"}
    assert cfg.violations() == []
    _limits_faked(monkeypatch, {"RLIMIT_AS": (1 << 30) + need // 2}, statm)
    assert mdl.memory_limit() == (need // 2, "that RLIMIT_AS leaves beside the 1.0 GiB already mapped")
    assert "GiB that RLIMIT_AS leaves" in " ".join(cfg.violations())
    _limits_faked(monkeypatch, {"RLIMIT_DATA": (1 << 29) + need // 2}, statm)
    assert mdl.memory_limit() == (need // 2, "that RLIMIT_DATA leaves beside the 0.5 GiB already mapped")
    _limits_faked(monkeypatch, {}, {"/proc/self/cgroup": "0::/jobs/one\n",
                                    "/sys/fs/cgroup/jobs/one/memory.max": f"{need // 2}\n"})
    assert mdl.memory_limit() == (need // 2, "of its cgroup's memory.max")
    assert "GiB of its cgroup's memory.max" in " ".join(cfg.violations())
    _limits_faked(monkeypatch, {}, {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "max\n"})
    assert mdl.memory_limit()[1] == "of physical memory"
    assert cfg.violations() == []


# --- blocks -----------------------------------------------------------------------

def test_encoder_block_zeroed_weights_is_pure_residual(rng):
    model = tiny_model()
    blk = model.encoder.blocks[0]
    for br in blk.branches:
        for p in (br.conv_w, br.conv_b, br.wq, br.wk, br.wv):
            p.data[...] = 0.0
    blk.out_w.data[...] = 0.0
    blk.out_b.data[...] = 0.0
    x = as_tensor(rng.normal(size=(10, 8)).astype(np.float32))
    out = block_forward(x, None, blk, 1, 1.0, model.cfg)
    assert np.array_equal(out.data, x.data)


def test_decoder_block_shape_guard(rng):
    model = tiny_model()
    cross = build_model(ModelConfig(**{**TINY, "causal": False}), seed=3)
    x = as_tensor(rng.normal(size=(10, 8)).astype(np.float32))
    enc_bad = as_tensor(rng.normal(size=(9, 8)).astype(np.float32))
    with pytest.raises(ShapeError):
        block_forward(x, enc_bad, cross.decoders[0].blocks[0], 1, 1.0, model.cfg)


def test_decoder_alpha_zero_drops_attention(rng):
    # with alpha 0 the block reduces to x + project(kernel-3 conv branch)
    model = tiny_model(seed=6)
    blk = model.decoders[0].blocks[0]
    x_arr = rng.normal(size=(10, 8)).astype(np.float32)
    enc = as_tensor(rng.normal(size=(10, 8)).astype(np.float32))
    out = block_forward(as_tensor(x_arr), enc, blk, 1, 0.0, model.cfg)
    br = blk.branches[0]
    h = nx.relu(nx.dilated_conv1d(as_tensor(x_arr), br.conv_w, br.conv_b, 1, False))
    expected = nx.add(as_tensor(x_arr),
                      nx.add(nx.matmul(h, blk.out_w), blk.out_b))
    assert np.array_equal(out.data, expected.data)


def test_decoder_with_zero_padded_projections_matches_encoder(rng):
    # stack the encoder's Q/K weights over zeros: the doubled-width cross
    # projections then ignore enc_out entirely and the decoder block computes
    # the same function as the encoder block
    model = tiny_model(seed=8)
    cross = tiny_model(seed=9)  # donor for decoder-shaped containers
    enc_blk = model.encoder.blocks[0]
    dec_blk = cross.decoders[0].blocks[0]
    C = model.cfg.feature_maps
    for j, (enc_br, dec_br) in enumerate(zip(enc_blk.branches, dec_blk.branches)):
        dec_br.conv_w.data = enc_br.conv_w.data.copy()
        dec_br.conv_b.data = enc_br.conv_b.data.copy()
        dec_br.wv.data = enc_br.wv.data.copy()
        dec_br.mix.data = enc_br.mix.data.copy()
        dec_br.wq.data = np.vstack([enc_br.wq.data, np.zeros((C, C), dtype=np.float32)])
        dec_br.wk.data = np.vstack([enc_br.wk.data, np.zeros((C, C), dtype=np.float32)])
    dec_blk.out_w.data = enc_blk.out_w.data.copy()
    dec_blk.out_b.data = enc_blk.out_b.data.copy()
    dec_blk.norm_gain.data = enc_blk.norm_gain.data.copy()
    dec_blk.norm_bias.data = enc_blk.norm_bias.data.copy()
    x = as_tensor(rng.normal(size=(12, 8)).astype(np.float32))
    enc_out = as_tensor(rng.normal(size=(12, 8)).astype(np.float32))
    got = block_forward(x, enc_out, dec_blk, 1, 1.0, model.cfg)
    want = block_forward(x, None, enc_blk, 1, 1.0, model.cfg)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-6)


# --- build_model -------------------------------------------------------------------

def test_build_deterministic():
    a = tiny_model(seed=42)
    b = tiny_model(seed=42)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)


def test_build_seed_changes_weights():
    a, b = tiny_model(seed=1), tiny_model(seed=2)
    assert any(not np.array_equal(pa.data, pb.data)
               for pa, pb in zip(a.parameters(), b.parameters()))


def test_three_decoders_give_four_stages(rng):
    model = tiny_model(num_decoders=3)
    out = forward_full(model, rng.normal(size=(9, 4)))
    assert len(out.logits) == 4


def test_causal_model_has_no_norm_parameters():
    model = tiny_model(causal=True)
    assert not any(".norm." in p.name for p in model.parameters())
    assert all(blk.norm_gain is None for blk in model.encoder.blocks)


def test_fusion_weights_initialized_to_one():
    model = tiny_model()
    mixes = [p for p in model.parameters() if p.name.endswith(".mix")]
    assert mixes and all(p.data == 1.0 for p in mixes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("causal", [False, True])
def test_parameters_view_one_weight_buffer_in_layout_order(dtype, causal):
    model = build_model(ModelConfig(**{**TINY, "causal": causal}), seed=0, dtype=dtype)
    buf = weight_buffer(model)
    assert buf.dtype == dtype and buf.size == model.cfg.parameter_count()[0]
    freed = weakref.ref(buf)
    del model, buf
    assert freed() is None, "the weight buffer outlived its model"


def test_build_rejects_invalid_config():
    with pytest.raises(ConfigError):
        build_model(ModelConfig(input_dim=4, num_classes=3, kernels=(5,)), seed=0)


# --- forward_full -----------------------------------------------------------------

def test_forward_shapes_and_finiteness(rng):
    for kernels in [(3,), (3, 5), (3, 5, 9), (3, 5, 17)]:
        model = tiny_model(kernels=kernels, causal=True, layers_per_stage=3)
        feats = rng.normal(size=(20, 4))
        out = forward_full(model, feats)
        assert len(out.logits) == 1 + model.cfg.num_decoders
        for logits in out.logits:
            assert logits.data.shape == (20, 3)
            assert np.isfinite(logits.data).all()


def test_forward_infer_deterministic(rng):
    model = tiny_model(dropout=0.5)
    feats = rng.normal(size=(12, 4))
    a = forward_full(model, feats).final()
    b = forward_full(model, feats).final()
    assert np.array_equal(a, b)
    # a generator given to inference turns nothing on and is not drawn from
    gen = np.random.default_rng(3)
    assert np.array_equal(forward_full(model, feats, rng=gen).final(), a)
    assert gen.random() == np.random.default_rng(3).random()


def test_forward_rejects_wrong_dim(rng):
    model = tiny_model()
    with pytest.raises(ShapeError):
        forward_full(model, rng.normal(size=(10, 5)))


def test_forward_rejects_too_few_frames(rng):
    with pytest.raises(ShapeError, match="features: 1 frame"):
        forward_full(tiny_model(), rng.normal(size=(1, 4)))
    with pytest.raises(ShapeError, match="features: no frames"):
        forward_full(tiny_model(causal=True), np.zeros((0, 4)))


def test_check_input_labels_must_match_frames():
    cfg = tiny_model().cfg
    check_input(cfg, np.zeros((5, 4)), np.zeros(5, dtype=np.int64), what="video v")
    with pytest.raises(ShapeError, match=r"video v: labels shape \(4,\) != \(5,\)"):
        check_input(cfg, np.zeros((5, 4)), np.zeros(4, dtype=np.int64), what="video v")


def test_forward_acausal_needs_two_frames(rng):
    model = tiny_model()
    with pytest.raises(ShapeError):
        forward_full(model, rng.normal(size=(1, 4)))
    causal = tiny_model(causal=True)
    out = forward_full(causal, rng.normal(size=(1, 4)))
    assert out.final().shape == (1, 3)


def test_forward_train_requires_rng_when_dropout_active(rng):
    model = tiny_model(dropout=0.5)
    with pytest.raises(ConfigError):
        forward_full(model, rng.normal(size=(8, 4)), mode="train")


def test_forward_train_dropout_reproducible(rng):
    model = tiny_model(dropout=0.5)
    feats = rng.normal(size=(12, 4))
    a = forward_full(model, feats, mode="train", rng=np.random.default_rng(3)).final()
    b = forward_full(model, feats, mode="train", rng=np.random.default_rng(3)).final()
    assert np.array_equal(a, b)


# --- single-scale reduction ---------------------------------------------------------

@pytest.mark.parametrize("causal", [False, True])
def test_single_scale_reduction_exact(rng, causal):
    model = tiny_model(causal=causal, kernels=(3,), layers_per_stage=3, num_decoders=2, seed=11)
    feats = rng.normal(size=(17, 4))
    ours = forward_full(model, feats)
    baseline = single_scale_forward(model, feats)
    assert len(baseline) == len(ours.logits)
    for got, ref in zip(ours.logits, baseline):
        assert np.array_equal(got.data, ref), "single-scale reduction must be bit-exact"


# --- causality ----------------------------------------------------------------------

def test_causal_end_to_end_future_invariance(rng):
    model = tiny_model(causal=True, kernels=(3, 5), layers_per_stage=3, num_decoders=1, seed=5)
    feats = rng.normal(size=(32, 4))
    base = [s.data.copy() for s in forward_full(model, feats).logits]
    for t in (0, 7, 18, 30):
        bumped = feats.copy()
        bumped[t + 1:] += rng.normal(size=bumped[t + 1:].shape) * 3.0
        out = forward_full(model, bumped)
        for s, logits in enumerate(out.logits):
            assert np.array_equal(logits.data[:t + 1], base[s][:t + 1]), \
                f"stage {s} leaked future information at t={t}"


def test_acausal_model_does_use_future(rng):
    model = tiny_model(causal=False, seed=5)
    feats = rng.normal(size=(16, 4))
    base = forward_full(model, feats).final()
    bumped = feats.copy()
    bumped[10:] += 5.0
    out = forward_full(model, bumped).final()
    assert not np.array_equal(out[:10], base[:10])


def test_conv_stack_receptive_field_is_2047(rng):
    # 10 causal kernel-3 layers, dilation 2^(l-1): y_t sees exactly the 2047
    # frames t-2046 .. t. Perturbation at distance 2046 must land, at 2047 not.
    T = 2060
    x = rng.normal(size=(T, 1))
    weights = [(as_tensor(rng.uniform(0.5, 1.5, size=(3, 1, 1))), as_tensor(np.zeros(1)))
               for _ in range(10)]

    def stack(arr):
        h = as_tensor(arr)
        for layer, (w, b) in enumerate(weights, start=1):
            h = nx.dilated_conv1d(h, w, b, 2 ** (layer - 1), True)
        return h.data

    base = stack(x)
    t = T - 1
    inside = x.copy()
    inside[t - 2046] += 1.0
    assert stack(inside)[t] != base[t]
    outside = x.copy()
    outside[t - 2047] += 1.0
    assert stack(outside)[t] == base[t]


# --- streaming -----------------------------------------------------------------------

def test_stream_matches_full_forward(rng):
    model = tiny_model(causal=True, layers_per_stage=3, seed=9)
    feats = rng.normal(size=(14, 4)).astype(np.float32)
    full = forward_full(model, feats).final()
    state = StreamState()
    for t in range(14):
        step = forward_stream(model, feats[t:t + 1], state)
        np.testing.assert_allclose(step[0], full[t], rtol=1e-4, atol=1e-5)
        assert step[0].argmax() == full[t].argmax()


def test_stream_matches_full_forward_after_every_cache_wraps(rng):
    model = tiny_model(causal=True, layers_per_stage=3, seed=4)
    reach = (max(model.cfg.kernels) - 1) << (model.cfg.layers_per_stage - 1)  # 16 block inputs
    T = 5 * reach
    feats = rng.normal(size=(T, 4)).astype(np.float32)
    full = forward_full(model, feats).final()
    state = StreamState()
    for t in range(T):
        step = forward_stream(model, feats[t], state)
        np.testing.assert_allclose(step[0], full[t], rtol=1e-4, atol=1e-5, err_msg=f"t={t}")
        assert step[0].argmax() == full[t].argmax()


@pytest.mark.parametrize("overrides", [{}, dict(kernels=(3, 17), feature_maps=1)],
                         ids=["C8-k5", "C1-k17"])
def test_stream_conv_is_the_per_tap_sum_after_every_cache_wraps(rng, monkeypatch, overrides):
    """Every conv call of a streamed frame makes one row. With the per-tap
    oracle patched in for the package's conv, every conv row and every
    frame's logits are bitwise the same, through every wrap of the caches."""
    model = tiny_model(causal=True, layers_per_stage=3, seed=4, **overrides)
    reach = (max(model.cfg.kernels) - 1) << (model.cfg.layers_per_stage - 1)
    feats = rng.normal(size=(5 * reach, 4)).astype(np.float32)

    def per_tap(x, w, b, dilation, causal, rows):
        return as_tensor(per_tap_conv_last_row(x.data, w.data, b.data, dilation, causal))

    def stream(conv):
        made = []  # each conv call's output row

        def recorded(x, w, b, dilation, causal, rows=None):
            assert rows == 1
            made.append(conv(x, w, b, dilation, causal, rows))
            return made[-1]

        monkeypatch.setattr(nx, "dilated_conv1d", recorded)
        state = StreamState()
        logits = [forward_stream(model, frame, state).tobytes() for frame in feats]
        monkeypatch.undo()
        return logits, [row.data.tobytes() for row in made]

    (package, package_rows), (oracle, oracle_rows) = stream(nx.dilated_conv1d), stream(per_tap)
    assert len(package_rows) == len(oracle_rows) == len(feats) * 2 * 3 * len(model.cfg.kernels)
    assert [i for i, (a, b) in enumerate(zip(package_rows, oracle_rows)) if a != b] == []
    assert [t for t in range(len(feats)) if package[t] != oracle[t]] == []


@st.composite
def causal_cases(draw):
    """(config, T, seed) of a causal model: kernels 3 to 11, odd or even."""
    extra = draw(st.lists(st.integers(4, 11), max_size=2, unique=True))
    cfg = ModelConfig(input_dim=draw(st.integers(1, 6)), num_classes=draw(st.integers(2, 5)),
                      kernels=(3, *sorted(extra)), layers_per_stage=draw(st.integers(1, 7)),
                      feature_maps=draw(st.integers(1, 8)), num_decoders=draw(st.integers(1, 3)),
                      causal=True)
    return cfg, draw(st.integers(1, 300)), draw(st.integers(0, 2**16))


@pytest.mark.slow
@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(causal_cases())
def test_stream_matches_full_forward_on_random_causal_models(case):
    cfg, T, seed = case
    model = build_model(cfg, seed=seed)
    feats = np.random.default_rng(seed).normal(size=(T, cfg.input_dim)).astype(np.float32)
    full = forward_full(model, feats).final()
    state = StreamState()
    rows = np.concatenate([forward_stream(model, feats[t], state) for t in range(T)])
    # each row to 1e-5 of its own largest logit
    err = np.abs(rows - full).max(axis=1) / np.abs(full).max(axis=1)
    assert err.max() <= 1e-5, f"row {err.argmax()} of {T}: relative error {err.max():.2e}"


def test_stream_state_size_is_bounded(rng):
    model = tiny_model(causal=True, layers_per_stage=3)
    reach = (max(model.cfg.kernels) - 1) << (model.cfg.layers_per_stage - 1)
    feats = rng.normal(size=(3 * reach, 4))
    state = StreamState()
    sizes = {}
    for t in range(1, 3 * reach + 1):
        forward_stream(model, feats[t - 1], state)
        sizes[t] = state.nbytes
    assert sizes[reach + 1] > 0
    assert sizes[reach + 1] == sizes[3 * reach]


def test_stream_state_grows_with_frames_not_reach(rng):
    # the conv reach of layer 45, 3 << 44 rows, would not fit in memory
    model = build_model(ModelConfig(input_dim=4, num_classes=3, kernels=(3, 4), layers_per_stage=45,
                                    feature_maps=1, num_decoders=1, causal=True), seed=0)
    state = StreamState()
    frames = 6
    for _ in range(frames):
        assert np.isfinite(forward_stream(model, rng.normal(size=4), state)).all()
    queues = [q for stage in state.blocks for c in stage for q in (c.inputs, *c.keys, *c.values)]
    assert len(queues) == 2 * 45 * 5
    assert state.nbytes <= len(queues) * 2 * frames * 4  # each at most 2x the rows pushed


def test_stream_state_counts_frames(rng):
    model = tiny_model(causal=True)
    state = StreamState()
    assert len(state) == 0 and state.nbytes == 0
    for t in range(7):
        forward_stream(model, rng.normal(size=4), state)
        assert len(state) == t + 1
    assert state.nbytes > 0


def test_stream_first_frame_defined(rng):
    model = tiny_model(causal=True)
    out = forward_stream(model, rng.normal(size=(1, 4)), StreamState())
    assert out.shape == (1, 3)
    assert np.isfinite(out).all()


def test_stream_on_a_new_state_reproducible(rng):
    model = tiny_model(causal=True)
    feats = rng.normal(size=(6, 4))
    state = StreamState()
    first = [forward_stream(model, feats[t:t + 1], state) for t in range(6)]
    state = StreamState()
    second = [forward_stream(model, feats[t:t + 1], state) for t in range(6)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_stream_rejects_acausal_model(rng):
    model = tiny_model(causal=False)
    with pytest.raises(ModeError):
        forward_stream(model, rng.normal(size=(1, 4)), StreamState())


@pytest.mark.parametrize("other", [dict(layers_per_stage=3), dict(feature_maps=16), {}])
def test_stream_state_refuses_another_model(rng, other):
    """A state filled by a 2-layer model, then given a 3-layer one (whose
    third layer would go unrun), a C=16 one, or another of the same shape:
    ModeError, with the caches untouched, and the first model streams on."""
    def caches(state):
        return [(q.rows.tobytes(), q.end) for stage in state.blocks for c in stage
                for q in (c.inputs, *c.keys, *c.values)]

    model = tiny_model(causal=True)
    feats = rng.normal(size=(5, 4))
    state = StreamState()
    rows = [forward_stream(model, feats[t], state) for t in range(3)]
    before = caches(state)
    with pytest.raises(ModeError, match="another model"):
        forward_stream(tiny_model(causal=True, seed=1, **other), feats[3], state)
    assert len(state) == 3 and caches(state) == before
    rows += [forward_stream(model, feats[t], state) for t in (3, 4)]
    fresh = StreamState()
    assert [forward_stream(model, f, fresh).tobytes() for f in feats] == [r.tobytes() for r in rows]


# --- predict ------------------------------------------------------------------------

def test_predict_shape_and_range(rng):
    model = tiny_model(num_decoders=2)
    labels = predict(model, rng.normal(size=(25, 4)))
    assert labels.shape == (25,)
    assert labels.dtype == np.int64
    assert ((labels >= 0) & (labels < 3)).all()


def test_predict_tie_breaks_toward_smaller_id(rng):
    model = tiny_model()
    for p in model.parameters():
        p.data[...] = 0.0  # all logits identical -> every frame is a tie
    labels = predict(model, rng.normal(size=(9, 4)))
    assert np.array_equal(labels, np.zeros(9, dtype=np.int64))


def test_causal_predict_of_a_finite_video_runs_one_full_pass(rng, monkeypatch):
    model = tiny_model(causal=True)
    feats = rng.normal(size=(30, 4)).astype(np.float32)
    labels = predict(model, feats)
    calls = []

    def counted(name):
        run = getattr(mdl, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return run(*args, **kwargs)
        return wrapper

    for name in ("forward_full", "forward_stream"):
        monkeypatch.setattr(mdl, name, counted(name))
    assert np.array_equal(predict(model, feats), labels) and calls == ["forward_full"]


def test_causal_predict_names_the_first_non_finite_streamed_frame(rng):
    """Frames 12-29 at +-5.3e37 (finite, but they overflow): masked future
    values still meet row 0 in a full pass's chunk products, so on that
    error alone predict streams the video and names the first frame whose
    streamed logits are not all finite."""
    model = tiny_model(causal=True)
    feats = rng.normal(size=(30, 4)).astype(np.float32)
    feats[12:] = rng.choice([-5.3e37, 5.3e37], size=(18, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(forward_full(model, feats).final()[0]).all()
        state = StreamState()
        finite = [np.isfinite(forward_stream(model, frame, state)).all() for frame in feats]
        with pytest.raises(NumericError, match=f"^non-finite logits at frame {finite.index(False)}$"):
            predict(model, feats)
    assert finite.index(False) >= 12


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arrays(np.float32, st.tuples(st.integers(1, 40), st.just(4)),
              elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
def test_causal_predict_fails_where_streaming_first_fails(feats):
    model = tiny_model(causal=True)
    with np.errstate(all="ignore"):
        try:
            predict(model, feats)
        except NumericError as err:
            frame = int(str(err).rsplit(" ", 1)[1])
            state = StreamState()
            finite = [np.isfinite(forward_stream(model, row, state)).all() for row in feats]
            assert finite.index(False) == frame


# --- gradient check of the tiny model -------------------------------------------------

@pytest.mark.slow
def test_tiny_model_gradient_check(rng):
    from tests.oracles import capture_smooth_prev, finite_diff_check, frozen_total_loss
    from msast.training import TrainConfig

    cfg = ModelConfig(input_dim=4, num_classes=3, kernels=(3, 5), layers_per_stage=2,
                      feature_maps=8, num_decoders=1, causal=False, dropout=0.0)
    model = build_model(cfg, seed=1, dtype=np.float64)
    feats = rng.normal(size=(12, 4))
    labels = rng.integers(0, 3, size=12)
    tc = TrainConfig(smooth_lambda=0.15)
    frozen = capture_smooth_prev(forward_full(model, feats, mode="train"))

    def f():
        return frozen_total_loss(forward_full(model, feats, mode="train"), labels, tc, frozen)

    # eps 1e-5: at 1e-4 the central-difference truncation error itself
    # exceeds the 1e-4 bar on a stack this deep
    assert finite_diff_check(f, model.parameters(), eps=1e-5) <= 1e-4
