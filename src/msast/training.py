"""Losses, Adam, the deterministic training loop, and checkpoint I/O.

Every stage is supervised with cross-entropy plus a truncated MSE on
consecutive-frame log-probabilities (the over-segmentation smoother); the
previous frame is treated as constant for gradients. Training is batch
size 1 video, shuffled per epoch by one seeded generator that also drives
dropout, so a (seed, data, config) triple fixes every parameter byte.
"""

import io
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from .errors import ConfigError, DataError, FileFormatError, NumericError, ShapeError
from .model import Model, ModelConfig, StageOutputs, build_model, forward_full
from .numerics import Parameter, Tensor, _accumulate, _tracking

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
    bad = np.flatnonzero((labels < 0) | (labels >= C))
    if bad.size:
        raise DataError(f"label {int(labels[bad[0]])} out of range [0, {C}) at frame {int(bad[0])}")
    lsm = _log_softmax(logits.data)
    out_data = np.asarray(-lsm[np.arange(T), labels].mean(), dtype=logits.data.dtype)
    if not _tracking(logits):
        return Tensor(out_data)
    probs = np.exp(lsm)

    def backward(g):
        dz = probs.copy()
        dz[np.arange(T), labels] -= 1.0
        dz *= g / T
        _accumulate(logits, dz)

    return Tensor(out_data, True, (logits,), backward)


def smoothing_loss(logits: Tensor, tau: float, prev_log_probs: np.ndarray | None = None) -> Tensor:
    """Mean over frames 2..T and classes of min(|dlp|, tau)^2, where dlp is the
    log-probability change from the previous frame (previous frame detached;
    log-probs floored at log 1e-8).

    `prev_log_probs` pins the detached previous-frame term to an explicit
    (T-1, C) array; gradient-check harnesses use it to freeze the stopped
    path at the base point so central differences see the same function the
    analytic gradient describes. Training leaves it None.
    """
    T, C = logits.data.shape
    if T < 2:
        warnings.warn("smoothing_loss needs T >= 2; returning 0", stacklevel=2)
        return Tensor(np.zeros((), dtype=logits.data.dtype))
    lsm = _log_softmax(logits.data)
    floored = np.maximum(lsm, LOG_PROB_FLOOR)
    prev = floored[:-1] if prev_log_probs is None else np.asarray(prev_log_probs)
    if prev.shape != (T - 1, C):
        raise ShapeError(f"prev_log_probs shape {prev.shape}, expected {(T - 1, C)}")
    delta = floored[1:] - prev
    clipped = np.minimum(np.abs(delta), tau)
    out_data = np.asarray((clipped ** 2).mean(), dtype=logits.data.dtype)
    if not _tracking(logits):
        return Tensor(out_data)
    probs = np.exp(lsm)

    def backward(g):
        ddelta = np.where(np.abs(delta) < tau, 2.0 * delta, 0.0)
        ddelta *= g / delta.size
        dfloored = np.zeros_like(lsm)
        dfloored[1:] = ddelta  # previous-frame term is constant
        dlsm = dfloored * (lsm > LOG_PROB_FLOOR)
        dz = dlsm - probs * dlsm.sum(axis=1, keepdims=True)
        _accumulate(logits, dz)

    return Tensor(out_data, True, (logits,), backward)


def total_loss(stages: StageOutputs, labels: np.ndarray, cfg: TrainConfig,
               frozen_smooth_prev: list[np.ndarray] | None = None) -> Tensor:
    """Sum over stages of cross-entropy + smooth_lambda * smoothing loss.

    `frozen_smooth_prev` (one array per stage, from `capture_smooth_prev`)
    pins each stage's detached previous-frame log-probs for gradient checks.
    """
    total = None
    for s, logits in enumerate(stages.logits):
        term = cross_entropy_loss(logits, labels)
        if cfg.smooth_lambda != 0.0:
            prev = None if frozen_smooth_prev is None else frozen_smooth_prev[s]
            smooth = smoothing_loss(logits, cfg.smooth_tau, prev)
            term = nx.add(term, nx.scale(smooth, cfg.smooth_lambda))
        total = term if total is None else nx.add(total, term)
    return total


def capture_smooth_prev(stages: StageOutputs) -> list[np.ndarray]:
    """Detached previous-frame log-probs per stage, for freezing in checks."""
    out = []
    for logits in stages.logits:
        floored = np.maximum(_log_softmax(logits.data), LOG_PROB_FLOOR)
        out.append(floored[:-1].copy())
    return out


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, model: Model) -> "AdamState":
        params = model.parameters()
        return cls(
            m={p.name: np.zeros_like(p.data) for p in params},
            v={p.name: np.zeros_like(p.data) for p in params},
        )


def adam_step(params: list[Parameter], state: AdamState, lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
    """Bias-corrected Adam update; gradients are zeroed afterward."""
    b1, b2 = betas
    state.step += 1
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {p.name}")
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
        if sample.features.shape[1] != model.cfg.input_dim:
            raise ShapeError(
                f"video {sample.id}: feature dim {sample.features.shape[1]} "
                f"!= model input_dim {model.cfg.input_dim}")
        if sample.labels is None:
            raise DataError(f"video {sample.id} has no labels")
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
            pred = stages.final().argmax(axis=1)
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
# config: u32 kernel count, u32 per kernel, then u32 layers_per_stage,
#   feature_maps, input_dim, num_classes, num_decoders, causal (0/1),
#   dropout (float32 bit pattern), alpha_base (float32 bit pattern)
# u32 parameter count; per parameter:
#   u16 name length, UTF-8 name, u8 rank, rank x u32 dims, float32 LE values
# the same count+entry layout again for Adam m, then Adam v, then u64 step.
# All integers little-endian; arrays row-major.

CHECKPOINT_MAGIC = b"MSASTCK1"
CHECKPOINT_VERSION = 1


def _f32_bits(x: float) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def _bits_f32(bits: int) -> float:
    return float(struct.unpack("<f", struct.pack("<I", bits))[0])


def _write_array(buf, name: str, arr: np.ndarray):
    encoded = name.encode("utf-8")
    buf.write(struct.pack("<H", len(encoded)))
    buf.write(encoded)
    buf.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<I", dim))
    buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FileFormatError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what) -> int:
        return struct.unpack("<B", self.take(1, what))[0]

    def u16(self, what) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def _read_array(r: _Reader) -> tuple[str, np.ndarray]:
    name_len = r.u16("name length")
    name = r.take(name_len, "name").decode("utf-8")
    rank = r.u8(f"rank of {name}")
    shape = tuple(r.u32(f"dim of {name}") for _ in range(rank))
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = r.take(4 * count, f"values of {name}")
    arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return name, arr


def save_checkpoint(model: Model, adam_state: AdamState, path):
    """Serialize model + optimizer so that save -> load -> save is byte-identical."""
    cfg = model.cfg
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(cfg.kernels)))
    for k in cfg.kernels:
        buf.write(struct.pack("<I", k))
    for value in (cfg.layers_per_stage, cfg.feature_maps, cfg.input_dim,
                  cfg.num_classes, cfg.num_decoders, int(cfg.causal),
                  _f32_bits(cfg.dropout), _f32_bits(cfg.alpha_base)):
        buf.write(struct.pack("<I", value))
    params = model.parameters()
    buf.write(struct.pack("<I", len(params)))
    for p in params:
        _write_array(buf, p.name, p.data)
    for section in (adam_state.m, adam_state.v):
        buf.write(struct.pack("<I", len(params)))
        for p in params:
            _write_array(buf, p.name, section[p.name])
    buf.write(struct.pack("<Q", adam_state.step))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> tuple[Model, AdamState]:
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic = r.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FileFormatError(f"bad checkpoint magic {magic!r} at offset 0, expected {CHECKPOINT_MAGIC!r}")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FileFormatError(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    n_kernels = r.u32("kernel count")
    kernels = tuple(r.u32("kernel size") for _ in range(n_kernels))
    ints = [r.u32(f) for f in ("layers_per_stage", "feature_maps", "input_dim",
                               "num_classes", "num_decoders", "causal flag")]
    dropout = _bits_f32(r.u32("dropout"))
    alpha_base = _bits_f32(r.u32("alpha_base"))
    cfg = ModelConfig(
        input_dim=ints[2], num_classes=ints[3], kernels=kernels,
        layers_per_stage=ints[0], feature_maps=ints[1], num_decoders=ints[4],
        causal=bool(ints[5]), dropout=dropout, alpha_base=alpha_base,
    )
    model = build_model(cfg, seed=0)
    by_name = model.param_by_name()
    n_params = r.u32("parameter count")
    if n_params != len(by_name):
        raise FileFormatError(f"checkpoint has {n_params} parameters, config implies {len(by_name)}")
    for _ in range(n_params):
        name, arr = _read_array(r)
        if name not in by_name:
            raise FileFormatError(f"unknown parameter {name!r} in checkpoint")
        if arr.shape != by_name[name].data.shape:
            raise FileFormatError(
                f"parameter {name!r} has shape {arr.shape}, config implies {by_name[name].data.shape}")
        by_name[name].data = arr
    state = AdamState(m={}, v={})
    for section in (state.m, state.v):
        count = r.u32("moment count")
        if count != n_params:
            raise FileFormatError(f"moment section has {count} entries, expected {n_params}")
        for _ in range(count):
            name, arr = _read_array(r)
            if name not in by_name or arr.shape != by_name[name].data.shape:
                raise FileFormatError(f"moment entry {name!r} does not match model parameters")
            section[name] = arr
    state.step = r.u64("step counter")
    if r.pos != len(data):
        raise FileFormatError(f"{len(data) - r.pos} trailing bytes after checkpoint payload at offset {r.pos}")
    return model, state
