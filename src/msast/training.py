"""Losses, Adam, the deterministic training loop, and checkpoint I/O.

Every stage is supervised with cross-entropy plus a truncated MSE on
consecutive-frame log-probabilities (the over-segmentation smoother); the
previous frame is treated as constant for gradients. Training is batch
size 1 video, shuffled per epoch by one seeded generator that also drives
dropout, so a (seed, data, config) triple fixes every parameter byte.
"""

import contextlib
import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from .data import _Reader, check_class_ids
from .errors import ConfigError, DataError, ModeError, NumericError, ResourceError, ShapeError
from .model import (Model, ModelConfig, StageOutputs, assemble_model, check_input,
                    forward_full, labels_from_logits)
from .numerics import Parameter, Tensor, _accumulate, _saved, _tracked, _tracking, _value

LOG_PROB_FLOOR = float(np.log(1e-8))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-4
    smooth_tau: float = 4.0
    smooth_lambda: float = 0.15
    seed: int = 0
    # adam_betas and adam_eps: class constants, not fields, assigned below
    # from adam_step's defaults for callers that pass them on

    def validate(self):
        problems = []
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0:
            problems.append(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not self.smooth_tau > 0:
            problems.append(f"smooth_tau must be > 0, got {self.smooth_tau}")
        if self.smooth_lambda < 0:
            problems.append(f"smooth_lambda must be >= 0, got {self.smooth_lambda}")
        for name in ("learning_rate", "smooth_lambda"):
            if not np.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if problems:
            raise ConfigError("invalid train config: " + "; ".join(problems))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over frames of -log softmax(logits)[label]."""
    labels = np.asarray(labels)
    T, C = logits.data.shape
    if labels.shape != (T,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits rows {T}")
    check_class_ids(labels, C, "labels")
    lsm = _log_softmax(logits.data)
    out_data = np.asarray(-lsm[np.arange(T), labels].mean(), dtype=logits.data.dtype)
    if not _tracking(logits):
        return Tensor(out_data)
    kept = tuple(_saved(a, "cross_entropy_loss") for a in (np.exp(lsm), labels))
    node = logits._node

    def backward(g):
        probs, labels = (_value(a) for a in kept)
        dz = probs.copy()
        dz[np.arange(T), labels] -= 1.0
        dz *= g / T
        _accumulate(node, dz)

    return _tracked(out_data, backward, node)


def smoothing_loss(logits: Tensor, tau: float) -> Tensor:
    """Mean over frames 2..T and classes of min(|dlp|, tau)^2, where dlp is the
    log-probability change from the previous frame (previous frame detached;
    log-probs floored at log 1e-8).
    """
    T = logits.data.shape[0]
    if T < 2:
        warnings.warn("smoothing_loss needs T >= 2; returning 0", stacklevel=2)
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    lsm = _log_softmax(logits.data)
    floored = np.maximum(lsm, LOG_PROB_FLOOR)
    delta = floored[1:] - floored[:-1]
    clipped = np.minimum(np.abs(delta), tau)
    out_data = np.asarray((clipped ** 2).mean(), dtype=logits.data.dtype)
    if not _tracking(logits):
        return Tensor(out_data)
    kept = tuple(_saved(a, "smoothing_loss") for a in (delta, lsm, np.exp(lsm)))
    node = logits._node

    def backward(g):
        delta, lsm, probs = (_value(a) for a in kept)
        ddelta = np.where(np.abs(delta) < tau, 2.0 * delta, 0.0)
        ddelta *= g / delta.size
        dfloored = np.zeros_like(lsm)
        dfloored[1:] = ddelta  # previous-frame term is constant
        dlsm = dfloored * (lsm > LOG_PROB_FLOOR)
        dz = dlsm - probs * dlsm.sum(axis=1, keepdims=True)
        _accumulate(node, dz)

    return _tracked(out_data, backward, node)


def total_loss(stages: StageOutputs, labels: np.ndarray, cfg: TrainConfig) -> Tensor:
    """Sum over stages of cross-entropy + smooth_lambda * smoothing loss."""
    total = None
    for logits in stages.logits:
        term = cross_entropy_loss(logits, labels)
        if cfg.smooth_lambda != 0.0:
            smooth = smoothing_loss(logits, cfg.smooth_tau)
            term = nx.add(term, nx.scale(smooth, cfg.smooth_lambda))
        total = term if total is None else nx.add(total, term)
    return total


class AdamState:
    """Adam's moments, one (2, N) buffer holding m's row then v's, each laid
    out as `Model.weights`, and the step count. A state from
    `load_checkpoint` holds a function that reads the moments from its file
    on first use of `moments`, so inference never holds them."""

    def __init__(self, moments, step: int = 0):
        self._moments = moments
        self.step = step

    @classmethod
    def init(cls, model: Model) -> "AdamState":
        """Zero moments, whose pages cost nothing until a step writes them."""
        # One buffer, not one per moment: glibc raises its mmap threshold to
        # the size of a freed mapping of up to 32 MB, after which arrays up to
        # that size come from the heap. The default model's 52 MB is past that
        # cap and its 26 MB halves are not (offline inference then peaked
        # 1.3 MB higher).
        try:
            return cls(np.zeros((2, model.weights.size), model.dtype))
        except MemoryError:
            raise ResourceError(f"out of memory allocating the Adam moments: 2 x {model.weights.size}"
                                f" values, {2 * model.weights.nbytes / 2**30:.2f} GiB") from None

    @property
    def moments(self) -> np.ndarray:
        if callable(self._moments):
            self._moments = self._moments()
        return self._moments


def _slots(params: list[Parameter], row: np.ndarray | None):
    """Each parameter with its slot of `row`, a flat array laid out as
    `Model.weights`, or with None when there is no row."""
    at = 0
    for p in params:
        yield p, None if row is None else row[at:at + p.data.size].reshape(p.data.shape)
        at += p.data.size


def _fitting_moments(params: list[Parameter], state: AdamState) -> np.ndarray:
    """`state.moments`, which must be (2, the parameters' total size)."""
    moments = state.moments
    size = sum(p.data.size for p in params)
    if moments.shape != (2, size):
        raise ShapeError(f"Adam moments of shape {moments.shape} do not fit {len(params)} "
                         f"parameters of {size} values; expected (2, {size})")
    return moments


def adam_step(params: list[Parameter], state: AdamState, lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
    """Bias-corrected Adam update; gradients are zeroed afterward. A
    non-finite gradient, or moments that are not (2, the parameters' total
    size), raise before anything is updated."""
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in parameter {p.name}")
    moments = _fitting_moments(params, state)
    b1, b2 = betas
    state.step += 1
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for (p, m), (_, v) in zip(_slots(params, moments[0]), _slots(params, moments[1])):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        denom = np.sqrt(v / bc2)
        denom += eps
        update = m / bc1
        update /= denom
        update *= lr
        p.data -= update
        p.grad = None


TrainConfig.adam_betas, TrainConfig.adam_eps = adam_step.__defaults__


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float  # percent


@dataclass
class TrainingHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_text(self) -> str:
        return "".join(f"epoch {e.epoch} loss {e.loss:.6f} acc {e.accuracy:.6f}\n"
                       for e in self.epochs)


def train(model: Model, dataset, cfg: TrainConfig, adam_state: AdamState | None = None) -> TrainingHistory:
    """Train on a list of VideoSample (batch = 1 video), deterministically.

    Per epoch: shuffle with the seeded generator, forward in train mode
    (same generator drives dropout), backprop the summed stage losses, Adam
    step. Records mean loss and frame accuracy per epoch.
    """
    cfg.validate()
    dataset = list(dataset)
    if not dataset:
        raise DataError("training set is empty")
    for sample in dataset:
        check_input(model.cfg, sample.features, sample.labels, what=f"video {sample.id}")
    if adam_state is None:
        adam_state = AdamState.init(model)
    params = model.parameters()
    rng = np.random.default_rng(cfg.seed)
    history = TrainingHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(dataset))
        loss_sum = 0.0
        correct = 0
        frames = 0
        for idx in order:
            sample = dataset[idx]
            stages = forward_full(model, sample.features, mode="train", rng=rng)
            loss = total_loss(stages, sample.labels, cfg)
            if not loss.requires_grad:
                raise ModeError("the training loss has no tape: grad mode is off in this thread")
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericError(f"non-finite loss at epoch {epoch}, video {sample.id}")
            loss.backward()
            adam_step(params, adam_state, cfg.learning_rate)
            pred = labels_from_logits(stages.final())
            correct += int((pred == sample.labels).sum())
            frames += len(sample.labels)
            loss_sum += loss_value
        history.epochs.append(EpochStats(
            epoch=epoch,
            loss=loss_sum / len(dataset),
            accuracy=100.0 * correct / frames,
        ))
    return history


# --- checkpoint format ------------------------------------------------------
#
# magic "MSASTCK1" | u32 version=1
# config: u32 kernel count, u32 per kernel, then the _CONFIG_FIELDS packed
#   as _CONFIG_FORMAT: six u32 (causal as 0/1), float32 dropout and alpha_base
# u32 parameter count; per parameter, in Model.parameters() order:
#   u16 name length, UTF-8 name, u8 rank, rank x u32 dims, float32 LE values
# the same count+entry layout again for Adam m, then Adam v, then u64 step.
# All integers little-endian; arrays row-major. Writer and loader share each
# struct format. The writer streams each field and entry to the file as it
# packs it. The loader reads through data._Reader and checks each entry's
# name and dims against the header's config before it reads the values into
# their slot of the model's weight buffer, which it sizes only once the file
# holds that many values. It seeks over the moment values; AdamState reads
# them on first use, into the one buffer AdamState.init allocates.

CHECKPOINT_MAGIC = b"MSASTCK1"
CHECKPOINT_VERSION = 1
_CONFIG_FORMAT = "<6I2f"
_CONFIG_FIELDS = ("layers_per_stage", "feature_maps", "input_dim", "num_classes", "num_decoders",
                  "causal", "dropout", "alpha_base")


def _write_array(fh, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
    fh.write(np.asarray(arr, dtype="<f4", order="C").data)  # no copy of a float32 LE array


def _read_entry(r: _Reader, name: str, shape: tuple[int, ...], out: np.ndarray | None):
    """The next array entry, which must be `name` with dims `shape`, read
    into `out`; with no `out`, its values are seeked over."""
    at = r.pos
    (name_length,) = r.unpack("<H", "name length")
    raw_name = r.take(name_length, "name")
    if raw_name != name.encode("utf-8"):
        raise r.error(f"entry at offset {at} is named {raw_name!r}, expected {name!r}")
    (rank,) = r.unpack("<B", f"rank of {name}")
    dims = r.unpack(f"<{rank}I", f"dims of {name}")
    if dims != shape:
        raise r.error(f"parameter {name!r} at offset {at} has shape {dims}, config implies {shape}")
    if out is None:
        r.skip(4 * math.prod(shape), f"values of {name}")
    else:
        r.floats(shape, f"values of {name}", out)


def _read_moments(r: _Reader, params: list[Parameter], moments: np.ndarray | None = None):
    """The Adam m and v sections, each a count and one entry per parameter,
    read into the rows of `moments`, laid out as AdamState's; with none,
    their values are seeked over."""
    for row in (None, None) if moments is None else moments:
        at = r.pos
        (count,) = r.unpack("<I", "moment count")
        if count != len(params):
            raise r.error(f"moment section at offset {at} has {count} entries, "
                          f"expected {len(params)}")
        for p, slot in _slots(params, row):
            _read_entry(r, p.name, p.data.shape, slot)


def save_checkpoint(model: Model, adam_state: AdamState, path):
    """Serialize model + optimizer so that save -> load -> save is byte-identical.

    Each field and entry goes to the file as it is packed, so saving holds
    no copy of the file in memory. The bytes go to `<path>.<pid>.tmp`, which
    then replaces `path`, so a save that fails or is killed midway leaves the
    file that was at `path` as it was; a failed save also removes its
    temporary file. Moments that do not fit the model raise ShapeError before
    anything is written. Nothing is fsynced, so a power loss may still lose both."""
    cfg = model.cfg
    params = model.parameters()
    moments = _fitting_moments(params, adam_state)  # read before `path`, their source, is replaced
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(cfg.kernels)))
            fh.write(struct.pack(f"<{len(cfg.kernels)}I", *cfg.kernels))
            fh.write(struct.pack(_CONFIG_FORMAT,
                                 *(getattr(cfg, name) for name in _CONFIG_FIELDS)))
            fh.write(struct.pack("<I", len(params)))
            for p in params:
                _write_array(fh, p.name, p.data)
            for row in moments:
                fh.write(struct.pack("<I", len(params)))
                for p, slot in _slots(params, row):
                    _write_array(fh, p.name, slot)
            fh.write(struct.pack("<Q", adam_state.step))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def load_checkpoint(path) -> tuple[Model, AdamState]:
    """The model and its Adam state. Every entry's name and dims are checked
    now, but only the parameters are read: the returned state reads its
    moments on first use, from the same file, which must not have changed."""
    with _Reader(path) as r:
        r.magic(CHECKPOINT_MAGIC)
        at = r.pos
        (version,) = r.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise r.error(f"unsupported checkpoint version {version} at offset {at}, "
                          f"expected {CHECKPOINT_VERSION}")
        (n_kernels,) = r.unpack("<I", "kernel count")
        kernels = r.unpack(f"<{n_kernels}I", "kernel sizes")
        header = dict(zip(_CONFIG_FIELDS, r.unpack(_CONFIG_FORMAT, "model config")))
        cfg = ModelConfig(kernels=kernels, **header | {"causal": bool(header["causal"])})
        problems = cfg.violations()
        if header["causal"] > 1:
            problems.append(f"causal flag must be 0 or 1, got {header['causal']}")
        if problems:
            raise r.error("checkpoint header holds an invalid model config: " + "; ".join(problems))
        scalars, entries = cfg.parameter_count()
        at = r.pos
        (n_params,) = r.unpack("<I", "parameter count")
        if n_params != entries:
            raise r.error(f"checkpoint has {n_params} parameters at offset {at}, "
                          f"config implies {entries}")
        r.need(12 * scalars, "parameter and moment values")

        def read(name, out, fan_in=None, fill=0.0):
            _read_entry(r, name, out.shape, out)

        model = assemble_model(cfg, read, np.dtype("<f4"))
        params = model.parameters()
        moments_at = r.pos
        _read_moments(r, params)
        (step,) = r.unpack("<Q", "step counter")
        r.end()
        source = os.path.realpath(path)
        identity = _identity(r.stat)

    def read_moments():
        with _Reader(source) as again:
            if _identity(again.stat) != identity:
                raise again.error("changed since the checkpoint was loaded; "
                                  "its Adam moments can no longer be read")
            again.skip(moments_at, "parameters")
            moments = AdamState.init(model).moments
            _read_moments(again, params, moments)
            return moments

    return model, AdamState(read_moments, step)
