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
from .errors import ConfigError, DataError, NumericError, ResourceError, ShapeError
from .model import (Model, ModelConfig, StageOutputs, assemble_model, check_input,
                    forward_full, labels_from_logits)
from .numerics import Parameter, Tensor, _accumulate, _tracked, _tracking

LOG_PROB_FLOOR = float(np.log(1e-8))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-4
    smooth_tau: float = 4.0
    smooth_lambda: float = 0.15
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    seed: int = 0

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
    probs, node = np.exp(lsm), logits._node

    def backward(g):
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
    probs, node = np.exp(lsm), logits._node

    def backward(g):
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
    """Adam's first (m) and second (v) moments by parameter name, and the
    step count. A state from `load_checkpoint` reads m and v from its file on
    first access to either, so inference never holds them."""

    def __init__(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], step: int = 0):
        self._moments = (m, v)
        self.step = step

    @classmethod
    def init(cls, model: Model) -> "AdamState":
        """Zero moments in one buffer, m's row then v's, each in layout order
        with a view per parameter, so that their pages cost nothing until
        written (many small `np.zeros` would share heap pages that are
        resident at once)."""
        params = model.parameters()
        ends = np.cumsum([p.data.size for p in params])
        # One buffer, not one per moment: glibc raises its mmap threshold to
        # the size of a freed mapping of up to 32 MB, after which arrays up to
        # that size come from the heap. The default model's 52 MB is past that
        # cap and its 26 MB halves are not (offline inference then peaked
        # 1.3 MB higher).
        try:
            flat = np.zeros((2, ends[-1]), model.dtype)
        except MemoryError:
            raise ResourceError(f"out of memory allocating the Adam moments: 2 x {ends[-1]} "
                                f"values, {2 * model.weights.nbytes / 2**30:.2f} GiB") from None

        def views(row) -> dict[str, np.ndarray]:
            parts = np.split(row, ends[:-1])
            return {p.name: part.reshape(p.data.shape) for p, part in zip(params, parts)}

        return cls(m=views(flat[0]), v=views(flat[1]))

    @classmethod
    def read_later(cls, read_moments, step: int) -> "AdamState":
        """A state whose moments come from `read_moments()` on first access."""
        state = cls({}, {}, step)
        state._moments = read_moments
        return state

    def _loaded(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        if callable(self._moments):
            self._moments = self._moments()
        return self._moments

    @property
    def m(self) -> dict[str, np.ndarray]:
        return self._loaded()[0]

    @property
    def v(self) -> dict[str, np.ndarray]:
        return self._loaded()[1]


def adam_step(params: list[Parameter], state: AdamState, lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
    """Bias-corrected Adam update; gradients are zeroed afterward. A
    non-finite gradient raises NumericError before anything is updated."""
    for p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in parameter {p.name}")
    b1, b2 = betas
    state.step += 1
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[p.name]
        v = state.v[p.name]
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
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericError(f"non-finite loss at epoch {epoch}, video {sample.id}")
            loss.backward()
            adam_step(params, adam_state, cfg.learning_rate, cfg.adam_betas, cfg.adam_eps)
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
# them on first access.

CHECKPOINT_MAGIC = b"MSASTCK1"
CHECKPOINT_VERSION = 1
_CONFIG_FORMAT = "<6I2f"
_CONFIG_FIELDS = ("layers_per_stage", "feature_maps", "input_dim", "num_classes", "num_decoders",
                  "causal", "dropout", "alpha_base")


def _write_array(fh, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
    fh.write(np.asarray(arr, dtype="<f4", order="C").data)  # no copy of a float32 LE array


def _read_entry(r: _Reader, name: str, shape: tuple[int, ...], skip: bool = False, out=None):
    """The next array entry, which must be `name` with dims `shape`, read
    into `out` if given; with `skip`, its values are seeked over and None is
    returned."""
    at = r.pos
    (name_length,) = r.unpack("<H", "name length")
    raw_name = r.take(name_length, "name")
    if raw_name != name.encode("utf-8"):
        raise r.error(f"entry at offset {at} is named {raw_name!r}, expected {name!r}")
    (rank,) = r.unpack("<B", f"rank of {name}")
    dims = r.unpack(f"<{rank}I", f"dims of {name}")
    if dims != shape:
        raise r.error(f"parameter {name!r} at offset {at} has shape {dims}, config implies {shape}")
    if skip:
        r.skip(4 * math.prod(shape), f"values of {name}")
        return None
    return r.floats(shape, f"values of {name}", out)


def _read_moments(r: _Reader, params: list[Parameter], skip: bool = False):
    """The Adam m and v sections, each a count and one entry per parameter."""
    sections = ({}, {})
    for section in sections:
        (count,) = r.unpack("<I", "moment count")
        if count != len(params):
            raise r.error(f"moment section has {count} entries, expected {len(params)}")
        for p in params:
            section[p.name] = _read_entry(r, p.name, p.data.shape, skip)
    return sections


def save_checkpoint(model: Model, adam_state: AdamState, path):
    """Serialize model + optimizer so that save -> load -> save is byte-identical.

    Each field and entry goes to the file as it is packed, so saving holds
    no copy of the file in memory. The bytes go to `<path>.<pid>.tmp`, which
    then replaces `path`, so a save that fails or is killed midway leaves the
    file that was at `path` as it was; a failed save also removes its
    temporary file. Nothing is fsynced, so a power loss may still lose both."""
    cfg = model.cfg
    params = model.parameters()
    moments = (adam_state.m, adam_state.v)  # read before `path`, their source, is replaced
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
            for section in moments:
                fh.write(struct.pack("<I", len(params)))
                for p in params:
                    _write_array(fh, p.name, section[p.name])
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
        (n_params,) = r.unpack("<I", "parameter count")
        r.need(12 * cfg.parameter_count()[0], "parameter and moment values")

        def read(name, out, fan_in=None, fill=0.0):
            _read_entry(r, name, out.shape, out=out)

        model = assemble_model(cfg, read, np.dtype("<f4"))
        params = model.parameters()
        if n_params != len(params):
            raise r.error(f"checkpoint has {n_params} parameters, config implies {len(params)}")
        moments_at = r.pos
        _read_moments(r, params, skip=True)
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
            return _read_moments(again, params)

    return model, AdamState.read_later(read_moments, step)
