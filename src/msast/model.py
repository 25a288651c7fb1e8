"""Multi-scale encoder/decoder segmentation model, offline and causal.

One encoder stage turns projected frame features into initial per-frame
class logits; each decoder stage consumes the softmax of the previous
stage's logits plus the encoder's final hidden state (cross-attention) and
emits refined logits. Every block runs one dilated-conv feed-forward per
scale kernel, attends within that scale's window, and fuses the branches:

    fused = h_base + alpha * sum_j mix_j * attn_j

with h_base the kernel-3 branch, mix_j learned scalars, and alpha 1 in the
encoder and first decoder, then decaying by alpha_base per decoder. Each
attention call takes its branch's mix_j and returns mix_j * attn_j; in
layer 1 every window is width 1, so attn_j is V and the block forms
mix_j * V with no Q, K or kernel call. The block alone scales each term by
alpha, and adds the terms to h_base in branch order. The tape keeps no
attention output; the out-projection GEMM keeps the fused sum, one T x C
array per block. With or without a tape, a branch's attention runs while
the block holds only its input, enc_out, the fused sum and that branch's Q,
K and V: the block drops each branch's conv, norm and concat outputs once
they are read, and a stage its input projection once its first block has
read it.

A model's parameters share one buffer, `Model.weights`, in layout order
(see `assemble_model`); dropping the model frees it whole.

Causal models use causal convolutions and windows and carry no temporal
normalization, so logits at time t never depend on frames after t. Each
causal block looks back a bounded distance: its convs read the last
(K_max-1)*2^(l-1) block inputs and its attention the last w-1 keys and
values of each scale. Streaming keeps exactly those rows per (stage, layer)
in a `StreamState` (Fast WaveNet queues, Paine et al. 2016; Transformer-XL
key/value caching, Dai et al. 2019) and runs the same block code on the new
frame alone, so a frame costs the same at any t and the state stops
growing once t passes the widest reach. A full causal pass is that code on
all T frames with no history.
"""

import math
import os
import resource
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nx
from .attention import WindowSpec, sliding_window_attention, window_schedule
from .data import check_class_ids
from .errors import ConfigError, ModeError, NumericError, ResourceError, ShapeError
from .numerics import Parameter, Tensor, no_grad

# Python objects per parameter entry beyond its floats, charged by the
# memory bound: its Parameter, node, name and array header (366 bytes) and
# its grad's header (122), measured with tracemalloc on numpy 2.4 and Python
# 3.11 (the moments keep none), rounded up with room for other versions
ENTRY_BYTES = 1024


def memory_limit() -> tuple[int, str]:
    """(bytes, what sets them): the most this process can still allocate, the
    least of physical memory, RLIMIT_AS and RLIMIT_DATA less what the process
    already maps, and the memory.max of its cgroup (v2), where that file
    exists."""
    page = os.sysconf("SC_PAGE_SIZE")
    limits = [(page * os.sysconf("SC_PHYS_PAGES"), "of physical memory")]
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            fields = [page * int(f) for f in fh.read().split()]
        mapped = {"RLIMIT_AS": fields[0], "RLIMIT_DATA": fields[5]}  # size; data + stack
    except (OSError, ValueError, IndexError):
        mapped = {"RLIMIT_AS": 0, "RLIMIT_DATA": 0}
    for name, used in mapped.items():
        soft = resource.getrlimit(getattr(resource, name))[0]
        if soft != resource.RLIM_INFINITY:
            limits.append((max(0, soft - used), f"that {name} leaves beside the "
                                                f"{used / 2**30:.1f} GiB already mapped"))
    try:
        with open("/proc/self/cgroup", encoding="utf-8") as fh:
            group = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(f"/sys/fs/cgroup{group.rstrip('/')}/memory.max", encoding="ascii") as fh:
            raw = fh.read().strip()
        if raw != "max":
            limits.append((int(raw), "of its cgroup's memory.max"))
    except (OSError, StopIteration, ValueError):
        pass
    return min(limits)


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    num_classes: int
    kernels: tuple[int, ...] = (3, 5, 17)
    layers_per_stage: int = 10
    feature_maps: int = 64
    num_decoders: int = 3
    causal: bool = False
    dropout: float = 0.5
    alpha_base: float = 2.0

    def __post_init__(self):  # hold the float32 values a checkpoint stores, as a loaded model does
        object.__setattr__(self, "_given", {"dropout": self.dropout, "alpha_base": self.alpha_base})
        with np.errstate(over="ignore"):  # past float32 range is inf, which violations() names
            for name, value in self._given.items():
                object.__setattr__(self, name, float(np.float32(value)))

    def violations(self) -> list[str]:
        problems = []
        if self.input_dim < 1:
            problems.append(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 2:
            problems.append(f"num_classes must be >= 2, got {self.num_classes}")
        ks = tuple(self.kernels)
        if not ks:
            problems.append("kernels must be nonempty")
        else:
            if ks[0] != 3:
                problems.append(f"kernels[0] must be 3 (base scale), got {ks[0]}")
            if any(k < 3 for k in ks):
                problems.append(f"kernels must all be >= 3, got {ks}")
            if any(b <= a for a, b in zip(ks, ks[1:])):
                problems.append(f"kernels must be strictly increasing, got {ks}")
            if not self.causal and any(k % 2 == 0 for k in ks):
                problems.append(f"acausal models need odd kernels (centered conv), got {ks}")
        if self.layers_per_stage < 1:
            problems.append(f"layers_per_stage must be >= 1, got {self.layers_per_stage}")
        if self.feature_maps < 1:
            problems.append(f"feature_maps must be >= 1, got {self.feature_maps}")
        if self.num_decoders < 1:
            problems.append(f"num_decoders must be >= 1, got {self.num_decoders}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout must be in [0, 1) as a float32, got {self._given['dropout']}")
        if not 0 < self.alpha_base < math.inf:
            problems.append(f"alpha_base must be finite and > 0 as a float32, "
                            f"got {self._given['alpha_base']}")
        if not problems:
            scalars, entries = self.parameter_count()
            need = 12 * scalars + ENTRY_BYTES * entries  # float32 weight, Adam m and v
            have, source = memory_limit()
            if need > have:
                problems.append(f"{scalars} parameters in {entries} entries need "
                                f"{need / 2**30:.1f} GiB with their Adam moments, more than "
                                f"the {have / 2**30:.1f} GiB {source}")
        return problems

    def parameter_count(self) -> tuple[int, int]:
        """(scalars, entries) of the model this config builds, counted
        without allocating: the layout walked with one layer and one decoder,
        each block entry counted once per layer and each decoder entry once
        per decoder."""
        scalars = entries = 0

        def count(name, shape, fan_in=None, fill=0.0):
            nonlocal scalars, entries
            copies = ((self.layers_per_stage if ".b0." in name else 1)
                      * (self.num_decoders if name.startswith("dec") else 1))
            scalars += math.prod(shape) * copies
            entries += copies

        _layout(replace(self, layers_per_stage=1, num_decoders=1), count)
        return scalars, entries

    def validate(self):
        problems = self.violations()
        if problems:
            raise ConfigError("invalid model config: " + "; ".join(problems))


@dataclass
class ScaleBranchParams:
    """One temporal scale inside a block: conv feed-forward, Q/K/V, fusion weight."""

    conv_w: Parameter   # (K, C, C)
    conv_b: Parameter   # (C,)
    wq: Parameter       # (C, C) encoder; (2C, C) decoder
    wk: Parameter
    wv: Parameter       # (C, C)
    mix: Parameter      # scalar fusion weight


@dataclass
class BlockParams:
    branches: list[ScaleBranchParams]
    out_w: Parameter            # (C, C) 1x1 projection
    out_b: Parameter            # (C,)
    norm_gain: Parameter | None  # acausal only
    norm_bias: Parameter | None


@dataclass
class StageParams:
    in_w: Parameter     # (Din, C)
    in_b: Parameter     # (C,)
    blocks: list[BlockParams]
    head_w: Parameter   # (C, num_classes)
    head_b: Parameter   # (num_classes,)


@dataclass
class Model:
    cfg: ModelConfig
    encoder: StageParams
    decoders: list[StageParams]
    dtype: np.dtype
    params: list[Parameter]  # every Parameter, in layout order (see assemble_model)
    weights: np.ndarray      # the one buffer every Parameter's data views

    def parameters(self) -> list[Parameter]:
        return list(self.params)


@dataclass
class StageOutputs:
    """Per-stage T x num_classes logits, encoder first."""

    logits: list[Tensor]

    def final(self) -> np.ndarray:
        return self.logits[-1].data


class _RowQueue:
    """The newest `keep` rows of a stream, contiguous in a buffer that grows
    with use: it doubles until it would pass `keep` rows, then takes its full
    keep + keep // 4 + 1 rows. From then on rows shift to the front once per
    keep // 4 + 1 pushes rather than on every push.
    """

    def __init__(self, keep: int, width: int, dtype):
        self.keep = keep
        self.capacity = keep + keep // 4 + 1
        self.rows = np.zeros((1, width), dtype=dtype)
        self.end = 0

    def push(self, new: np.ndarray) -> np.ndarray:
        """Append `new` (at most keep // 4 + 1 rows); return [up to `keep`
        older rows | new] as one view."""
        if self.end + len(new) > len(self.rows):
            live = min(self.end, self.keep)
            rows = self.rows
            if len(rows) < self.capacity:
                size = max(2 * len(rows), live + len(new))
                rows = np.zeros((self.capacity if size > self.keep else size, rows.shape[1]),
                                dtype=rows.dtype)
            rows[:live] = self.rows[self.end - live:self.end]
            self.rows, self.end = rows, live
        self.rows[self.end:self.end + len(new)] = new
        self.end += len(new)
        return self.rows[max(0, self.end - len(new) - self.keep):self.end]


class _BlockCache:
    """What a causal block at `layer` reads of its past: the last
    (K_max-1)*2^(l-1) block inputs for its convs, and the last w-1 keys
    and values of each scale branch for attention."""

    def __init__(self, cfg: ModelConfig, layer: int, dtype):
        keeps = [window_schedule(k, layer) - 1 for k in cfg.kernels]
        self.inputs = _RowQueue((max(cfg.kernels) - 1) << (layer - 1), cfg.feature_maps, dtype)
        self.keys = [_RowQueue(w, cfg.feature_maps, dtype) for w in keeps]
        self.values = [_RowQueue(w, cfg.feature_maps, dtype) for w in keeps]


class StreamState:
    """Online-inference cache, owned by a single consumer.

    Holds one `_BlockCache` per (stage, layer), sized from the model config
    on the first frame; `len` is the number of frames streamed. A new
    stream, or another model, starts from a new state.
    """

    def __init__(self):
        self.frames = 0
        self.blocks: list[list[_BlockCache]] | None = None
        self.model: Model | None = None  # the model that filled the caches

    def __len__(self) -> int:
        return self.frames

    @property
    def nbytes(self) -> int:
        return sum(q.rows.nbytes for stage in self.blocks or () for c in stage
                   for q in (c.inputs, *c.keys, *c.values))


def alpha_schedule(decoder_index: int, alpha_base: float) -> float:
    """Attention weight for the d-th decoder (1-based): 1, then 1/base, 1/base^2, ..."""
    if decoder_index < 1:
        raise ConfigError(f"decoder_index must be >= 1, got {decoder_index}")
    return float(alpha_base) ** (-(decoder_index - 1))


def block_forward(x: Tensor, enc_out: Tensor | None, params: BlockParams, layer: int,
                  alpha: float, cfg: ModelConfig, rng=None,
                  cache: _BlockCache | None = None) -> Tensor:
    """Encoder block (enc_out None: Q, K, V from the conv branch) or decoder
    block (Q and K read [branch | enc_out], V the branch only). An enc_out
    not shaped like x raises ShapeError, in layer 1 too, where Q and K are not formed,
    as does a block whose branch count is not the config's kernel count.
    An rng turns dropout on (training); without one the block is deterministic.

    With a cache (causal streaming, no tape) x holds only the new rows: the
    convs read them after the cached inputs, attention reads the new keys
    and values after the cached ones, and the cache keeps the newest rows."""
    if enc_out is not None and enc_out.data.shape != x.data.shape:
        raise ShapeError(f"enc_out shape {enc_out.data.shape} does not match block input {x.data.shape}")
    if len(params.branches) != len(cfg.kernels):
        raise ShapeError(f"{len(cfg.kernels)} scale kernels but {len(params.branches)} branches")
    dilation = 1 << (layer - 1)
    rows = x.data.shape[0]
    src = x if cache is None else nx.as_tensor(cache.inputs.push(x.data))
    fused = None
    for j, (kernel, br) in enumerate(zip(cfg.kernels, params.branches)):
        n = nx.relu(nx.dilated_conv1d(src, br.conv_w, br.conv_b, dilation, cfg.causal, rows))
        if fused is None:
            fused = n  # h_base
        if not cfg.causal:
            n = nx.temporal_norm(n, params.norm_gain, params.norm_bias)
        spec = WindowSpec.from_schedule(kernel, layer, cfg.causal)
        v = nx.matmul(n, br.wv)
        if spec.window_size == 1:  # attention is v itself; q, k and the cache go unread
            del n
            term = nx.mul(br.mix, v)
        else:
            if cache is not None:
                v = nx.as_tensor(cache.values[j].push(v.data))
            if enc_out is not None:
                n = nx.concat_channels(n, enc_out)
            q = nx.matmul(n, br.wq)
            k = nx.matmul(n, br.wk)
            if cache is not None:
                k = nx.as_tensor(cache.keys[j].push(k.data))
            del n  # attention reads only q, k and v
            term = sliding_window_attention(q, k, v, spec, br.mix)
            del q, k
        if alpha != 1.0:
            term = nx.scale(term, alpha)
        fused = nx.add(fused, term)
        del v, term
    proj = nx.add(nx.matmul(fused, params.out_w), params.out_b)
    return nx.add(x, nx.dropout(proj, cfg.dropout, rng))


def _layout(cfg: ModelConfig, make) -> tuple[StageParams, list[StageParams]]:
    """The encoder and decoders, every Parameter from `make(name, shape,
    fan_in=None, fill=0.0)` (weights pass their fan-in; the rest fan_in None
    and a constant fill), called in layout order."""
    C = cfg.feature_maps

    def stage(prefix: str, in_dim: int, cross: bool) -> StageParams:
        in_w = make(f"{prefix}.in.w", (in_dim, C), in_dim)
        in_b = make(f"{prefix}.in.b", (C,))
        blocks = []
        qk_dim = 2 * C if cross else C
        for i in range(cfg.layers_per_stage):
            b = f"{prefix}.b{i}"
            branches = []
            for k in cfg.kernels:
                s = f"{b}.k{k}"
                branches.append(ScaleBranchParams(
                    conv_w=make(f"{s}.conv.w", (k, C, C), k * C),
                    conv_b=make(f"{s}.conv.b", (C,)),
                    wq=make(f"{s}.wq", (qk_dim, C), qk_dim),
                    wk=make(f"{s}.wk", (qk_dim, C), qk_dim),
                    wv=make(f"{s}.wv", (C, C), C),
                    mix=make(f"{s}.mix", (), fill=1.0),
                ))
            blocks.append(BlockParams(
                branches=branches,
                out_w=make(f"{b}.out.w", (C, C), C),
                out_b=make(f"{b}.out.b", (C,)),
                norm_gain=None if cfg.causal else make(f"{b}.norm.g", (C,), fill=1.0),
                norm_bias=None if cfg.causal else make(f"{b}.norm.b", (C,)),
            ))
        head_w = make(f"{prefix}.head.w", (C, cfg.num_classes), C)
        head_b = make(f"{prefix}.head.b", (cfg.num_classes,))
        return StageParams(in_w, in_b, blocks, head_w, head_b)

    encoder = stage("enc", cfg.input_dim, cross=False)
    decoders = [stage(f"dec{d}", cfg.num_classes, cross=True)
                for d in range(1, cfg.num_decoders + 1)]
    return encoder, decoders


def assemble_model(cfg: ModelConfig, write, dtype=np.float32) -> Model:
    """The one parameter layout, for initialization and checkpoint loading.

    The model's values live in one C-contiguous buffer, `Model.weights`,
    with each Parameter's data a view of its slot: slots follow layout
    order with no gaps, the order `AdamState.init` lays the moments out in.
    `write(name, out, fan_in=None, fill=0.0)` fills each slot `out` (weights
    pass their fan-in; the rest fan_in None and a constant fill). The call
    order is the draw order, `Model.parameters()` and the checkpoint entry
    order. A buffer that cannot be allocated raises ResourceError."""
    scalars = cfg.parameter_count()[0]
    try:
        weights = np.empty(scalars, dtype)
    except MemoryError:
        raise ResourceError(f"out of memory allocating the weights: {scalars} parameters, "
                            f"{scalars * np.dtype(dtype).itemsize / 2**30:.2f} GiB") from None
    params, at = [], 0

    def make(name, shape, fan_in=None, fill=0.0):
        nonlocal at
        out = weights[at:at + math.prod(shape)].reshape(shape)
        at += out.size
        write(name, out, fan_in, fill)
        params.append(Parameter(out, name))
        return params[-1]

    encoder, decoders = _layout(cfg, make)
    return Model(cfg, encoder, decoders, np.dtype(dtype), params, weights)


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Deterministic initialization: weights uniform in +-sqrt(1/fan_in),
    biases zero, fusion weights 1, norm gain 1 / bias 0."""
    cfg.validate()
    rng = np.random.default_rng(seed)

    def write(name, out, fan_in=None, fill=0.0):
        if fan_in is None:
            out[...] = fill
        else:
            bound = math.sqrt(1.0 / fan_in)
            out[...] = rng.uniform(-bound, bound, size=out.shape)

    return assemble_model(cfg, write, dtype)


def _run_stage(inp: Tensor, stage: StageParams, cfg: ModelConfig, enc_hidden: Tensor | None,
               alpha: float, rng, caches: list) -> tuple[Tensor, Tensor]:
    """Returns (final hidden state, logits) for one stage over its input."""
    h = nx.add(nx.matmul(inp, stage.in_w), stage.in_b)
    for layer, (params, cache) in enumerate(zip(stage.blocks, caches), start=1):
        h = block_forward(h, enc_hidden, params, layer, alpha, cfg, rng, cache)
    logits = nx.add(nx.matmul(h, stage.head_w), stage.head_b)
    return h, logits


def _forward(model: Model, features: np.ndarray, rng, caches=None) -> StageOutputs:
    """All stages over `features`: the whole sequence when caches is None,
    else the newest frames of a stream whose past the caches hold."""
    cfg = model.cfg
    caches = caches or [[None] * cfg.layers_per_stage] * (1 + cfg.num_decoders)
    x = nx.as_tensor(features.astype(model.dtype, copy=False))
    enc_hidden, logits = _run_stage(x, model.encoder, cfg, None, 1.0, rng, caches[0])
    stages = [logits]
    for d, dec in enumerate(model.decoders, start=1):
        alpha = alpha_schedule(d, cfg.alpha_base)
        inp = nx.softmax_rows(stages[-1])
        stages.append(_run_stage(inp, dec, cfg, enc_hidden, alpha, rng, caches[d])[1])
    return StageOutputs(stages)


def check_input(cfg: ModelConfig, features: np.ndarray, labels=None, what="features"):
    """Raise ShapeError unless `features` is one video a `cfg` model can run:
    (T, input_dim) with T >= 1, or T >= 2 offline, where temporal norm takes
    statistics over the whole sequence. Given `labels`, they must be T class
    ids in [0, num_classes) (DataError for the range). Messages start with
    `what`, the video id or path. Commands call this before any output.
    """
    if np.ndim(features) != 2:
        raise ShapeError(f"{what}: features shape {np.shape(features)} is not (T, {cfg.input_dim})")
    T, dim = np.shape(features)
    if dim != cfg.input_dim:
        raise ShapeError(f"{what}: feature dim {dim} != model input_dim {cfg.input_dim}")
    if T < (1 if cfg.causal else 2):
        raise ShapeError(f"{what}: " + ("no frames" if T == 0 else "1 frame; offline needs 2"))
    if labels is not None:
        if np.shape(labels) != (T,):
            raise ShapeError(f"{what}: labels shape {np.shape(labels)} != ({T},)")
        check_class_ids(np.asarray(labels), cfg.num_classes, what)


def forward_full(model: Model, features: np.ndarray, mode: str = "infer",
                 rng=None) -> StageOutputs:
    """Run all stages over a full feature sequence.

    mode "train" keeps the tape and passes `rng`, which turns dropout on
    (required when dropout > 0); mode "infer" passes none and builds no tape.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    cfg = model.cfg
    features = np.asarray(features)
    check_input(cfg, features)
    if mode == "train":
        if cfg.dropout > 0 and rng is None:
            raise ConfigError("training forward with dropout > 0 needs an rng")
        return _forward(model, features, rng)
    with no_grad():
        return _forward(model, features, None)


def forward_stream(model: Model, next_feature_frame: np.ndarray, state: StreamState) -> np.ndarray:
    """Append one frame and return the final-stage logits for it (1 x num_classes).

    Runs the causal blocks on this frame alone against the rows `state`
    caches from earlier frames (created on the first frame), so the cost
    per frame and the state's size stay bounded however long the stream
    runs. Causality makes the result equal, up to float rounding, to the
    same row of a full-sequence pass.
    """
    if not model.cfg.causal:
        raise ModeError("streaming requires a causal model")
    frame = np.asarray(next_feature_frame)
    if frame.ndim == 1:
        frame = frame[None, :]
    if frame.shape != (1, model.cfg.input_dim):
        raise ShapeError(f"stream frame shape {frame.shape}, expected (1, {model.cfg.input_dim})")
    if state.blocks is None:
        state.model = model
        state.blocks = [[_BlockCache(model.cfg, layer, model.dtype)
                         for layer in range(1, model.cfg.layers_per_stage + 1)]
                        for _ in range(1 + model.cfg.num_decoders)]
    elif state.model is not model:
        raise ModeError("stream state holds another model's caches; a new model needs a new state")
    with no_grad():
        logits = _forward(model, frame, None, state.blocks).final()
    state.frames += 1
    return logits


def labels_from_logits(logits: np.ndarray, first_frame: int = 0) -> np.ndarray:
    """Per-row argmax of the softmax; ties go to the smaller class id. The one
    label rule, shared by `predict`, streaming and training accuracy so their
    labels agree. `Tensor(logits)` is untracked, so no tape is built. A row
    that is not finite has no label: NumericError names its frame, row 0
    being `first_frame`."""
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite logits at frame {first_frame + bad[0]}")
    probs = nx.softmax_rows(Tensor(logits)).data
    return probs.argmax(axis=1).astype(np.int64)


def predict(model: Model, features: np.ndarray) -> np.ndarray:
    """Per-frame labels of the final stage (see labels_from_logits). A causal
    full pass lets masked-out non-finite values reach earlier rows of their
    chunk (0 * inf is NaN), so on that error alone a causal model bisects
    over prefixes and names the end of the shortest one not all finite."""
    try:
        return labels_from_logits(forward_full(model, features, mode="infer").final())
    except NumericError:
        if not model.cfg.causal:
            raise
    good, bad = 0, len(features)  # prefix lengths: all finite, and not
    while bad - good > 1:
        mid = (good + bad) // 2
        if np.isfinite(forward_full(model, features[:mid]).final()).all():
            good = mid
        else:
            bad = mid
    raise NumericError(f"non-finite logits at frame {bad - 1}")
