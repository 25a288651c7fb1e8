"""Memory bounds of a train step, measured with tracemalloc (numpy reports its
array buffers to it).

A tape node keeps only the arrays its backward reads, so an activation no
backward reads is freed once the forward drops it, and one that a re-former
rebuilds from what the tape keeps anyway (a concat, a norm output, a matmul
output through its GEMM, or a conv output through its tap loop) is not kept
at all. A ReLU and a norm keep their input's node, so a branch's conv ->
ReLU -> norm chain keeps only the block input, which the conv keeps for its
weight gradient; dropout keeps its mask as packed bits. Attention returns
its branch's fusion term and keeps O(T) floats for backward, not its Q, K
and V, its O(T x window) probabilities or its output, which backward
re-forms chunk by chunk; a block's fused branch sum is kept once, by the
out-projection GEMM. Backward consumes the tape as it runs, so it needs
little memory beyond what the forward pass left and keeps almost nothing
once done. `test_full_length_train_step_fits` holds one step of the
default offline model at T=6000, Adam update included, under 289 MB
resident, and `test_full_length_train_steps_hold_a_steady_peak` three steps
under 312 MB.

Everything the tape keeps passes `numerics._saved`, so `tape_arrays`
lists it from `numerics.pack_hook`. Two more hooks check that one keep
point: keeping every value as an array, so that no re-former runs, and
spoiling every packed original before backward each leave every gradient
byte as it was.
"""

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msast import model as mdl
from msast import numerics as nx
from msast.attention import WindowSpec, sliding_window_attention
from msast.model import (ModelConfig, StageOutputs, StreamState, build_model, forward_full,
                         forward_stream, predict)
from msast.numerics import Parameter
from msast.training import TrainConfig, total_loss

from .oracles import tape_arrays
from .test_attention import plain_attention
from .test_training import _grad_digest

TINY = ModelConfig(input_dim=8, num_classes=4, kernels=(3, 5), layers_per_stage=4,
                   feature_maps=16, num_decoders=2)


def train_graph(T=1000, cfg=TINY):
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(T, cfg.input_dim)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=T)
    stages = forward_full(model, feats, mode="train", rng=np.random.default_rng(1))
    return model, stages, total_loss(stages, labels, TrainConfig())


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_forward_tape_keeps_only_what_backward_reads(traced):
    graph = train_graph()  # noqa: F841 (the tape lives while it is held)
    tape = tracemalloc.get_traced_memory()[0]
    # measured 2.77 MB; 3.17 MB while the tape kept attention outputs,
    # 4.91 MB while it kept ReLU outputs (a norm's input) and boolean dropout
    # masks, 6.38 MB while it kept fused sums, boolean ReLU masks and layer-1
    # V, 9.96 MB while attention kept its Q, K and V, 13.59 MB while the tape
    # also kept norm outputs, decoder concats and float dropout masks, 21.9 MB
    # when every node held its output
    assert tape <= 2.91e6, f"forward tape holds {tape / 1e6:.2f} MB"


def test_inference_working_set(traced):
    """A no-tape pass of the default offline model at T=2000 holds, at its
    peak, the block input, the encoder output, the fused branch sum, one
    branch's Q, K and V, and attention's output and one chunk's scores."""
    model = build_model(ModelConfig(input_dim=64, num_classes=7), seed=0)
    feats = np.random.default_rng(0).normal(size=(2000, 64)).astype(np.float32)
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    forward_full(model, feats, mode="infer")
    peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
    # measured 5.19 MiB, 10.6 arrays of T x C; 9.92 MiB while the block kept
    # each branch's conv, norm and concat outputs until the next branch
    # replaced them, a stage kept its input projection and the last decoder
    # output, and attention kept a scaled copy of Q and built its mask in
    # float64
    assert peak <= 5.7, f"a T=2000 forward peaked at {peak:.2f} MiB"


def test_unread_activation_is_freed_with_its_tensor():
    x = Parameter(np.array([[-1.5, 0.5], [2.0, -0.25]]), "x")
    h = nx.relu(x)
    y = nx.scale(h, 2.0)
    h_data = weakref.ref(h.data)
    del h
    assert y._parents, "y's graph is alive"
    assert h_data() is None, "y's graph keeps relu's output, which no backward reads"
    ones = nx.as_tensor(np.ones((2, 1)))
    loss = nx.matmul(nx.as_tensor(np.ones((1, 2))), nx.matmul(y, ones))
    loss.backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 2.0], [2.0, 0.0]])


def test_backward_needs_no_memory_beyond_the_forward_tape(traced):
    model, stages, loss = train_graph()
    forward = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    loss.backward()
    left, peak = tracemalloc.get_traced_memory()
    # measured 3.94 MB over a 2.77 MB tape: backward re-forms one attention
    # call's Q, K, V and output at a time, and a branch's conv and ReLU
    # outputs while it runs the branch (4.21 MB over 3.17 MB while the tape
    # kept attention outputs, 5.82 MB over 4.91 MB while it kept ReLU
    # outputs, 7.16 MB over 6.38 MB while it kept fused sums, and 10.34 MB
    # over 9.96 MB while it kept Q, K and V)
    assert peak <= 4.14e6, f"backward peak {peak / 1e6:.2f} MB over a {forward / 1e6:.2f} MB tape"
    # what remains: the parameters with their grads, the stage logits the
    # caller still holds, and a fixed allowance (measured 0.12 MB) for the
    # model's structure and the interpreter's free lists
    held = sum(sys.getsizeof(obj) for p in model.parameters()
               for obj in (p, p._node, p.name, p.data, p.grad) if obj is not None)
    held += model.weights.nbytes  # the views above count only their headers
    held += sum(sys.getsizeof(logits.data) for logits in stages.logits)
    assert left <= held + 0.15e6, \
        f"{left / 1e6:.3f} MB still traced after backward, {held / 1e6:.3f} MB of it held"


def test_backward_releases_every_non_leaf_node():
    model, stages, loss = train_graph(T=50)
    nodes, stack = {}, list(stages.logits)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    inner = [n for n in nodes.values() if n._backward is not None]
    assert len(inner) > 100
    loss.backward()
    assert all(n._backward is None and n.grad is None and n._parents == () for n in inner)
    conv_weights = [p for p in model.parameters() if p.name.endswith(".conv.w")]
    assert len(conv_weights) == (1 + TINY.num_decoders) * len(TINY.kernels) * TINY.layers_per_stage
    assert all(p.grad is not None for p in conv_weights)


def test_attention_keeps_per_row_statistics_not_probabilities(traced):
    T, C, w = 2000, 8, 513
    rng = np.random.default_rng(3)
    q, k, v = (Parameter(rng.normal(size=(T, C)), name) for name in "qkv")
    before = tracemalloc.get_traced_memory()[0]
    out = plain_attention(q, k, v, WindowSpec(window_size=w, causal=False))
    kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    # the probabilities alone would be about T * (64 + w) floats
    assert kept <= q.data.nbytes, f"attention keeps {kept} bytes beyond its inputs and output"


def test_decoder_tape_keeps_no_concat_or_norm_output(monkeypatch):
    made = []  # (op, output) of every concat and norm in the forward
    for name in ("concat_channels", "temporal_norm"):
        def record(*args, _op=getattr(nx, name)):
            out = _op(*args)
            made.append((_op.__name__, out))
            return out
        monkeypatch.setattr(nx, name, record)
    with tape_arrays() as kept:
        _, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    # decoder blocks past layer 1 read [n | enc_out]; every acausal branch normalizes
    assert collections.Counter(op for op, _ in made) == {
        "concat_channels": TINY.num_decoders * (TINY.layers_per_stage - 1) * len(TINY.kernels),
        "temporal_norm": (1 + TINY.num_decoders) * TINY.layers_per_stage * len(TINY.kernels)}
    outputs = {id(t.data): op for op, t in made}
    assert [(op, outputs[id(buf)]) for buf, _, op in kept if id(buf) in outputs] == []
    masks = [buf for buf, _, op in kept if op == "dropout"]
    assert len(masks) == (1 + TINY.num_decoders) * TINY.layers_per_stage
    # one bit per element of each block's (T, C) projection
    packed = math.ceil(50 * TINY.feature_maps / 8)
    assert all(mask.dtype == np.uint8 and mask.nbytes == packed for mask in masks)

    values = [(t._node, t.data.tobytes(), weakref.ref(t.data)) for _, t in made]
    del made[:], outputs, kept, masks
    assert stages.logits[-1]._parents, "the graph is alive"
    assert all(ref() is None for _, _, ref in values), "the tape keeps a concat or norm output"
    for node, forward, _ in values:
        assert node._reform().tobytes() == forward


def test_attention_tape_keeps_no_query_key_or_value(monkeypatch):
    made = []  # (q, k, v) of every attention call; layer 1 makes none

    def record(q, k, v, spec, *fusion):
        made.append((q, k, v))
        return sliding_window_attention(q, k, v, spec, *fusion)

    monkeypatch.setattr(mdl, "sliding_window_attention", record)
    with tape_arrays() as kept:
        _, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    assert len(made) == (1 + TINY.num_decoders) * (TINY.layers_per_stage - 1) * len(TINY.kernels)
    projections = [t for qkv in made for t in qkv]
    ids = {id(t.data) for t in projections}
    assert len(ids) == 3 * len(made)
    assert [op for buf, _, op in kept if id(buf) in ids] == []

    values = [(t._node, t.data.tobytes(), weakref.ref(t.data)) for t in projections]
    del made[:], projections
    assert stages.logits[-1]._parents, "the graph is alive"
    assert all(ref() is None for _, _, ref in values), "the tape keeps a Q, K or V"
    for node, forward, _ in values:
        assert node._reform().tobytes() == forward


def _grad_bytes(model):
    return [None if p.grad is None else p.grad.tobytes() for p in model.parameters()]


def _composed(q, k, v, spec, weight):
    """The kernel's output from the plain attention output, then the product
    with the weight as a separate tape op."""
    return nx.mul(weight, plain_attention(q, k, v, spec))


def test_attention_outputs_are_not_kept(monkeypatch):
    # attention outputs (layer 1's is v itself), every kernel, mul and scale
    # output (layer 1 forms its terms with mul, and the block scales every
    # term by alpha), and (addend, sum) pairs
    outputs, formed, sums = [], [], []

    def record(q, k, v, spec, weight):
        with nx.no_grad():
            outputs.append(plain_attention(q, k, v, spec).data)
        formed.append(sliding_window_attention(q, k, v, spec, weight))
        return formed[-1]

    def record_mul(a, b, _mul=nx.mul):
        outputs.append(b.data)
        formed.append(_mul(a, b))
        return formed[-1]

    def record_scale(a, c, _scale=nx.scale):
        formed.append(_scale(a, c))
        return formed[-1]

    def record_add(a, b, _add=nx.add):
        sums.append((b, _add(a, b)))
        return sums[-1][1]

    monkeypatch.setattr(mdl, "sliding_window_attention", record)
    monkeypatch.setattr(nx, "mul", record_mul)
    monkeypatch.setattr(nx, "scale", record_scale)
    monkeypatch.setattr(nx, "add", record_add)
    with tape_arrays() as kept:
        model, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    blocks, scales = (1 + TINY.num_decoders) * TINY.layers_per_stage, len(TINY.kernels)
    terms = [b for b, _ in sums if any(b is t for t in formed)]
    assert len(terms) == blocks * scales
    assert [op for buf, _, op in kept if any(buf is t.data for t in formed)] == []
    forms = {(a.shape, a.tobytes()) for a in outputs + [t.data for t in formed]}
    assert [op for buf, _, op in kept if (buf.shape, buf.tobytes()) in forms] == []
    # a block's fused sum is the one that adds its last branch's term; the
    # out-projection GEMM keeps it, and no partial sum is kept
    last = {id(t) for t in terms[scales - 1::scales]}
    fused = {id(out.data) for b, out in sums if id(b) in last}
    partial = {id(out.data) for b, out in sums
               if id(b) not in last and any(b is t for t in terms)}
    assert len(fused) == blocks and len(partial) == blocks * (scales - 1)
    assert [op for buf, _, op in kept if id(buf) in fused] == ["matmul"] * blocks
    assert [op for buf, _, op in kept if id(buf) in partial] == []
    del terms[:], sums[:], outputs[:], formed[:], kept
    loss.backward()
    folded = _grad_bytes(model)

    monkeypatch.setattr(mdl, "sliding_window_attention", _composed)
    model, _, loss = train_graph(T=50)
    monkeypatch.undo()
    loss.backward()
    # the same gradients as mul gave the weight apart
    composed = _grad_bytes(model)
    mixes = [i for i, p in enumerate(model.parameters()) if p.name.endswith(".mix")]
    assert len(mixes) == blocks * scales
    assert [folded[i] for i in mixes] == [composed[i] for i in mixes]
    assert folded == composed


def test_conv_and_relu_outputs_are_re_formed_once_not_kept(monkeypatch):
    made = []  # (op, output) of every conv and relu in the forward
    for name in ("dilated_conv1d", "relu"):
        def record(*args, _op=getattr(nx, name)):
            out = _op(*args)
            made.append((_op.__name__, out))
            return out
        monkeypatch.setattr(nx, name, record)
    with tape_arrays() as kept:
        _, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    branches = (1 + TINY.num_decoders) * TINY.layers_per_stage * len(TINY.kernels)
    assert collections.Counter(op for op, _ in made) == {"dilated_conv1d": branches,
                                                         "relu": branches}
    ids = {id(t.data) for _, t in made}
    assert [op for buf, _, op in kept if id(buf) in ids] == []

    values = [(t._node, t.data.tobytes(), weakref.ref(t.data)) for _, t in made]
    del made[:]
    assert stages.logits[-1]._parents, "the graph is alive"
    assert all(ref() is None for _, _, ref in values), "the tape keeps a conv or relu output"
    rebuilt = collections.defaultdict(list)  # node id -> one entry per re-form: bytes equal?

    def counted(node, reform, forward):
        def run():
            out = reform()
            rebuilt[id(node)].append(out.tobytes() == forward)
            return out
        return run

    for node, forward, _ in values:
        node._reform = counted(node, node._reform, forward)
    loss.backward()
    assert dict(rebuilt) == {id(node): [True] for node, _, _ in values}


def test_relu_keeps_one_bit_per_element(monkeypatch):
    made, relu = [], nx.relu  # (bytes kept, input size) of every relu

    def record(x):
        with tape_arrays() as kept:
            out = relu(x)
        made.append((sum(nbytes for _, nbytes, _ in kept), x.data.size))
        return out

    monkeypatch.setattr(nx, "relu", record)
    train_graph(T=50)
    monkeypatch.undo()
    assert len(made) == (1 + TINY.num_decoders) * TINY.layers_per_stage * len(TINY.kernels)
    for nbytes, size in made:
        assert nbytes <= math.ceil(size / 8)


def test_layer_one_tape_keeps_no_value(monkeypatch):
    made = []  # [v, mix * v, and its scale by alpha past the first decoder] of every layer-1 branch

    def record_mul(a, b, _mul=nx.mul):
        made.append([b, _mul(a, b)])
        return made[-1][-1]

    def record_scale(a, c, _scale=nx.scale):
        out = _scale(a, c)
        if made and a is made[-1][-1]:  # a layer-1 term; the block scales every term by alpha
            made[-1].append(out)
        return out

    monkeypatch.setattr(nx, "mul", record_mul)
    monkeypatch.setattr(nx, "scale", record_scale)
    with tape_arrays() as kept:
        _, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    alphas = [1.0] + [mdl.alpha_schedule(d, TINY.alpha_base) for d in range(1, TINY.num_decoders + 1)]
    assert [len(vt) for vt in made] == [2 if a == 1.0 else 3 for a in alphas for _ in TINY.kernels]
    ids = {id(t.data) for vt in made for t in vt}
    assert [op for buf, _, op in kept if id(buf) in ids] == []

    # the products and the term are new arrays that nothing re-forms
    values = [(v._node, v.data.tobytes(), weakref.ref(v.data)) for v, *_ in made]
    outs = [weakref.ref(t.data) for _, *terms in made for t in terms]
    del made[:]
    assert stages.logits[-1]._parents, "the graph is alive"
    assert all(ref() is None for _, _, ref in values), "the tape keeps a layer-1 V"
    assert all(ref() is None for ref in outs), "the tape keeps a layer-1 term"
    for node, forward, _ in values:
        assert node._reform().tobytes() == forward


def test_loss_is_one_node_keeping_one_probability_array_per_stage():
    """`total_loss` adds one node over the stage logits. It keeps per stage
    one probability array, which both terms read, the log-probs and the
    frame deltas, and the labels once."""
    T, C = 129, 7
    rng = np.random.default_rng(0)
    stages = [Parameter(rng.normal(size=(T, C)).astype(np.float32), f"s{i}") for i in range(4)]
    labels = rng.integers(0, C, size=T)
    with tape_arrays() as kept:
        loss = total_loss(StageOutputs(stages), labels, TrainConfig())
    exp = [np.exp(s.data - s.data.max(axis=1, keepdims=True)) for s in stages]
    probs = [[buf.shape == (T, C) and np.allclose(buf, e / e.sum(axis=1, keepdims=True))
              for buf, _, _ in kept].count(True) for e in exp]
    assert probs == [1] * len(stages)
    assert len(kept) == 3 * len(stages) + 1
    assert sum(nbytes for _, nbytes, _ in kept) == len(stages) * (2 * T + T - 1) * C * 4 + T * 8
    assert loss._parents == tuple(s._node for s in stages)


def test_untracked_passes_pack_nothing():
    packs = []  # the op of every pack

    def record(value, op, kept):
        packs.append(op)
        return kept

    feats = np.random.default_rng(0).normal(size=(70, TINY.input_dim)).astype(np.float32)
    causal, state = build_model(dataclasses.replace(TINY, causal=True), seed=0), StreamState()
    with nx.pack_hook(record):
        predict(build_model(TINY, seed=0), feats)
        for frame in feats[:3]:
            forward_stream(causal, frame, state)
    assert packs == []


def _step_digest(cfg, T, hook=None, before_backward=lambda: None):
    """`_grad_digest` of one train step whose tape is built under `hook`."""
    with nx.pack_hook(hook):
        model, _, loss = train_graph(T, cfg)
    before_backward()
    loss.backward()
    return _grad_digest(loss, model.parameters())


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_gradients_are_the_same_with_every_value_kept(data):
    """With each value kept as an array, no re-former runs: the loss and
    every gradient are byte-identical to the re-forming tape's, at and
    across attention chunk edges."""
    causal = data.draw(st.booleans())
    extra = data.draw(st.lists(st.integers(4, 17).filter(lambda k: causal or k % 2),
                               max_size=2, unique=True))
    cfg = ModelConfig(input_dim=data.draw(st.integers(1, 6)),
                      num_classes=data.draw(st.integers(2, 5)), kernels=(3, *sorted(extra)),
                      layers_per_stage=data.draw(st.integers(1, 5)),
                      feature_maps=data.draw(st.integers(1, 8)),
                      num_decoders=data.draw(st.integers(1, 2)), causal=causal,
                      dropout=data.draw(st.sampled_from([0.25, 0.5])))
    T = data.draw(st.sampled_from([63, 64, 65, 128, 129]))
    nodes = []  # what the re-forming tape would keep as a node

    def keep_arrays(value, op, kept):
        if isinstance(kept, nx._Node):
            nodes.append(op)
            return value.data
        return kept

    assert _step_digest(cfg, T, keep_arrays) == _step_digest(cfg, T)
    assert nodes


@pytest.mark.parametrize("causal", [False, True], ids=["offline", "causal"])
def test_backward_reads_only_what_was_packed(causal):
    """The tape keeps a copy of each packed array and every original is
    spoiled before backward: a closure or re-former that read an array it
    kept outside `_saved` would change a gradient byte or raise."""
    cfg = dataclasses.replace(TINY, causal=causal)
    originals = {}

    def keep_copy(value, op, kept):
        if isinstance(kept, np.ndarray):
            originals[id(kept)] = kept
            return kept.copy()
        return kept

    def spoil_originals():  # NaN floats, inverted mask bits, out-of-range labels
        for a in originals.values():
            if a.dtype.kind == "f":
                a[...] = np.nan
            elif a.dtype == np.uint8:
                np.invert(a, out=a)
            else:
                a[...] = np.iinfo(a.dtype).max

    assert _step_digest(cfg, 129, keep_copy, spoil_originals) == _step_digest(cfg, 129)
    assert {a.dtype.kind for a in originals.values()} == {"f", "i", "u"}


_FULL_LENGTH_STEPS = """
import json, resource, sys
import numpy as np
from msast.model import ModelConfig, build_model, forward_full
from msast.training import AdamState, TrainConfig, adam_step, total_loss
model = build_model(ModelConfig(input_dim=64, num_classes=7), seed=0)
state = AdamState.init(model)
rng = np.random.default_rng(0)
feats = rng.normal(size=(6000, 64)).astype(np.float32)
labels = rng.integers(0, 7, size=6000)
losses, peaks = [], []
for _ in range(int(sys.argv[1])):
    loss = total_loss(forward_full(model, feats, mode="train", rng=rng), labels, TrainConfig())
    loss.backward()
    no_grad = [p.name for p in model.parameters() if p.grad is None]
    adam_step(model.parameters(), state, 1e-4)
    losses.append(loss.item())
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(json.dumps({"losses": losses, "no_grad": no_grad, "peak_mb": peaks}))
"""


def _full_length_steps(steps: int) -> dict:
    """`steps` default offline train steps on a Cholec80-length video (T=6000,
    about 1.7 hours at 1 fps), Adam included, in a fresh process whose own
    peak resident size after each step is the measure."""
    src = os.path.dirname(os.path.dirname(mdl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _FULL_LENGTH_STEPS, str(steps)], env=env,
                          capture_output=True, text=True, timeout=600 * steps)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert all(math.isfinite(loss) for loss in result["losses"])
    return result


@pytest.mark.slow
def test_full_length_train_step_fits():
    result = _full_length_steps(1)
    layer_one = {f"{stage}.b0.k{k}.{w}" for stage in ("enc", "dec1", "dec2", "dec3")
                 for k in (3, 5, 17) for w in ("wq", "wk")}
    assert set(result["no_grad"]) == layer_one  # layer 1 forms no Q or K
    # measured 262 MB (2 vCPUs, numpy 2.4 on OpenBLAS)
    peak = result["peak_mb"][0]
    assert peak <= 289, f"a T=6000 train step peaked at {peak:.0f} MB"


@pytest.mark.slow
def test_full_length_train_steps_hold_a_steady_peak():
    """Three steps: the first Adam step writes both moments, 26 MB each, so
    the peak rises into step 2 and then holds; a step that kept anything
    past its end would raise it again."""
    peaks = _full_length_steps(3)["peak_mb"]
    # measured 253, 282 and 284 MB (2 vCPUs, numpy 2.4 on OpenBLAS); the bound is 284 + 10%
    assert peaks[2] <= 312, f"three T=6000 train steps peaked at {peaks[2]:.0f} MB"
    # measured 1.4 to 1.6 MB; one T=6000 tape is over 100 MB
    assert peaks[2] - peaks[1] <= 6, f"the third step raised the peak {peaks[2] - peaks[1]:.1f} MB"
