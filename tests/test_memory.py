"""Memory bounds of a train step, measured with tracemalloc (numpy reports its
array buffers to it).

A tape node keeps only the arrays its backward reads, so an activation no
backward reads is freed once the forward drops it, and one that a re-former
rebuilds from what the tape keeps anyway (a concat, a norm output, or a
matmul output through its GEMM) is not kept at all. Backward consumes the
tape as it runs, so it needs little memory beyond what the forward pass left
and keeps almost nothing once done; attention keeps O(T) floats for
backward, not its Q, K and V or its O(T x window) probabilities.
"""

import collections
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from msast import model as mdl
from msast import numerics as nx
from msast.attention import WindowSpec, sliding_window_attention
from msast.model import ModelConfig, build_model, forward_full
from msast.numerics import Parameter
from msast.training import TrainConfig, total_loss

from .oracles import tape_arrays

TINY = ModelConfig(input_dim=8, num_classes=4, kernels=(3, 5), layers_per_stage=4,
                   feature_maps=16, num_decoders=2)


def train_graph(T=1000):
    model = build_model(TINY, seed=0)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(T, TINY.input_dim)).astype(np.float32)
    labels = rng.integers(0, TINY.num_classes, size=T)
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
    # measured 6.38 MB; 9.96 MB while attention kept its Q, K and V, 13.59 MB
    # while the tape also kept norm outputs, decoder concats and float dropout
    # masks, 21.9 MB when every node held its output
    assert tape <= 6.7e6, f"forward tape holds {tape / 1e6:.2f} MB"


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
    # measured 7.16 MB over a 6.38 MB tape: backward re-forms one attention
    # call's Q, K and V at a time (10.34 MB over 9.96 MB while the tape kept them)
    assert peak <= 7.5e6, f"backward peak {peak / 1e6:.2f} MB over a {forward / 1e6:.2f} MB tape"
    # what remains: the parameters with their grads, the stage logits the
    # caller still holds, and a fixed allowance (measured 0.12 MB) for the
    # model's structure and the interpreter's free lists
    held = sum(sys.getsizeof(obj) for p in model.parameters()
               for obj in (p, p._node, p.name, p.data, p.grad) if obj is not None)
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
    out = sliding_window_attention(q, k, v, WindowSpec(window_size=w, causal=False))
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
    _, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    # decoder blocks past layer 1 read [n | enc_out]; every acausal branch normalizes
    assert collections.Counter(op for op, _ in made) == {
        "concat_channels": TINY.num_decoders * (TINY.layers_per_stage - 1) * len(TINY.kernels),
        "temporal_norm": (1 + TINY.num_decoders) * TINY.layers_per_stage * len(TINY.kernels)}
    outputs = {id(t.data): op for op, t in made}
    kept = tape_arrays(loss)
    assert [(op, outputs[id(buf)]) for buf, _, op in kept if id(buf) in outputs] == []
    masks = [buf for buf, _, op in kept if op == "dropout"]
    assert len(masks) == (1 + TINY.num_decoders) * TINY.layers_per_stage
    assert all(mask.dtype == np.bool_ for mask in masks)

    values = [(t._node, t.data.tobytes(), weakref.ref(t.data)) for _, t in made]
    del made[:], outputs, kept, masks
    assert stages.logits[-1]._parents, "the graph is alive"
    assert all(ref() is None for _, _, ref in values), "the tape keeps a concat or norm output"
    for node, forward, _ in values:
        assert node._reform().tobytes() == forward


def test_attention_tape_keeps_no_query_key_or_value(monkeypatch):
    made = []  # (q, k, v) of every attention call that forms scores

    def record(q, k, v, spec):
        if spec.window_size > 1:  # a width-1 window returns v itself
            made.append((q, k, v))
        return sliding_window_attention(q, k, v, spec)

    monkeypatch.setattr(mdl, "sliding_window_attention", record)
    _, stages, loss = train_graph(T=50)
    monkeypatch.undo()
    assert len(made) == (1 + TINY.num_decoders) * (TINY.layers_per_stage - 1) * len(TINY.kernels)
    projections = [t for qkv in made for t in qkv]
    ids = {id(t.data) for t in projections}
    assert len(ids) == 3 * len(made)
    assert [op for buf, _, op in tape_arrays(loss) if id(buf) in ids] == []

    values = [(t._node, t.data.tobytes(), weakref.ref(t.data)) for t in projections]
    del made[:], projections
    assert stages.logits[-1]._parents, "the graph is alive"
    assert all(ref() is None for _, _, ref in values), "the tape keeps a Q, K or V"
    for node, forward, _ in values:
        assert node._reform().tobytes() == forward
