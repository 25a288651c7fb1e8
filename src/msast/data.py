"""Dataset I/O and the synthetic phase-sequence generator.

On-disk layout:
    <root>/features/<id>.msfeat    binary feature file (magic MSFEAT01)
    <root>/labels/<id>.txt         one integer class id per line
    <root>/mapping.txt             "id name" per line, ids dense 0..C-1
    <root>/splits/train.txt        one video id per line
    <root>/splits/test.txt

Feature files: 8-byte ASCII magic, u32 LE frame count T, u32 LE dim D,
then T*D float32 LE values frame-major. Round-trips are bit-exact.

`_Reader` is the one parser of binary input (feature files here, checkpoints
in `training`); its errors name the file, the field and the byte offset.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FileFormatError

FEATURE_MAGIC = b"MSFEAT01"


@dataclass
class VideoSample:
    id: str
    features: np.ndarray  # (T, D) float32
    labels: np.ndarray    # (T,) int64


@dataclass
class DatasetManifest:
    root: str
    mapping: dict[int, str]
    train_ids: list[str]
    test_ids: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.mapping)

    def feature_path(self, video_id: str) -> str:
        return os.path.join(self.root, "features", f"{video_id}.msfeat")

    def label_path(self, video_id: str) -> str:
        return os.path.join(self.root, "labels", f"{video_id}.txt")

    def split_ids(self, split: str) -> list[str]:
        if split == "train":
            return self.train_ids
        if split == "test":
            return self.test_ids
        raise ConfigError(f"unknown split {split!r}, expected 'train' or 'test'")


class _Reader:
    """Bounds-checked cursor over an open binary file: each field is checked
    against the bytes left before anything is allocated for it, and again
    against the bytes actually read (the file may shrink meanwhile)."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def error(self, message: str) -> FileFormatError:
        return FileFormatError(f"{self.fh.name}: {message}")

    def _check(self, n: int, have: int, field: str):
        if n > have:
            raise self.error(f"truncated: {field} needs {n} bytes at offset {self.pos}, {have} left")

    def take(self, n: int, field: str) -> bytes:
        self._check(n, self.size - self.pos, field)
        chunk = self.fh.read(n)
        self._check(n, len(chunk), field)
        self.pos += n
        return chunk

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def magic(self, expected: bytes):
        at = self.pos
        found = self.take(len(expected), "magic")
        if found != expected:
            raise self.error(f"bad magic {found!r} at offset {at}, expected {expected!r}")

    def floats(self, shape: tuple[int, ...], field: str) -> np.ndarray:
        """The next prod(shape) float32 LE values, read straight into a new array."""
        n = 4 * math.prod(shape)
        self._check(n, self.size - self.pos, field)
        values = np.empty(shape, dtype="<f4")
        self._check(n, self.fh.readinto(values), field)
        self.pos += n
        return values

    def end(self):
        if self.pos != self.size:
            raise self.error(f"{self.size - self.pos} trailing bytes at offset {self.pos}")


def write_feature_file(path, features: np.ndarray):
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise DataError(f"features must be 2-D (T, D), got shape {features.shape}")
    if not np.isfinite(features).all():
        raise DataError("features contain non-finite values")
    T, D = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", T, D))
        fh.write(np.ascontiguousarray(features, dtype="<f4").tobytes())


def read_feature_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        r.magic(FEATURE_MAGIC)
        T, D = r.unpack("<II", "header")
        at = r.pos
        features = r.floats((T, D), f"{T}x{D} feature values")
        r.end()
    bad = np.flatnonzero(~np.isfinite(features))
    if bad.size:
        raise DataError(f"{path}: non-finite feature value at offset {at + 4 * int(bad[0])}")
    return features


def read_text_lines(path, error=DataError) -> list[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a UTF-8 text
    file; bytes that do not decode raise `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def read_labels(path, T_expected: int) -> np.ndarray:
    labels = []
    for lineno, line in read_text_lines(path):
        try:
            labels.append(int(line))
        except ValueError:
            raise DataError(f"{path}: non-integer label {line!r} on line {lineno}") from None
    if len(labels) != T_expected:
        raise DataError(f"{path}: expected {T_expected} labels, found {len(labels)}")
    return np.asarray(labels, dtype=np.int64)


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for value in np.asarray(labels):
            fh.write(f"{int(value)}\n")


def read_mapping(path) -> dict[int, str]:
    mapping = {}
    for lineno, line in read_text_lines(path):
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise DataError(f"{path}: malformed mapping line {lineno}: {line!r}")
        try:
            cid = int(parts[0])
        except ValueError:
            raise DataError(f"{path}: non-integer class id on line {lineno}") from None
        if cid in mapping:
            raise DataError(f"{path}: duplicate class id {cid} on line {lineno}")
        mapping[cid] = parts[1]
    if sorted(mapping) != list(range(len(mapping))):
        raise DataError(f"{path}: class ids must be dense 0..{len(mapping) - 1}, got {sorted(mapping)}")
    return mapping


def read_split(path) -> list[str]:
    ids = []
    for lineno, vid in read_text_lines(path):
        if vid in ids:
            raise DataError(f"{path}: duplicate video id {vid!r} on line {lineno}")
        ids.append(vid)
    return ids


def load_manifest(root) -> DatasetManifest:
    return DatasetManifest(
        root=str(root),
        mapping=read_mapping(os.path.join(root, "mapping.txt")),
        train_ids=read_split(os.path.join(root, "splits", "train.txt")),
        test_ids=read_split(os.path.join(root, "splits", "test.txt")),
    )


def check_class_ids(ids: np.ndarray, num_classes: int, what):
    """Raise DataError unless every class id in `ids` lies in [0, num_classes)."""
    bad = np.flatnonzero((ids < 0) | (ids >= num_classes))
    if bad.size:
        raise DataError(f"{what}: class id {int(ids[bad[0]])} at frame {int(bad[0])} "
                        f"out of range [0, {num_classes})")


def load_video(manifest: DatasetManifest, video_id: str) -> VideoSample:
    features = read_feature_file(manifest.feature_path(video_id))
    lpath = manifest.label_path(video_id)
    labels = read_labels(lpath, features.shape[0])
    check_class_ids(labels, manifest.num_classes, lpath)
    return VideoSample(id=video_id, features=features, labels=labels)


def load_split(manifest: DatasetManifest, split: str) -> list[VideoSample]:
    return [load_video(manifest, vid) for vid in manifest.split_ids(split)]


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 7
    num_videos: int = 50
    t_min: int = 200
    t_max: int = 400
    feature_dim: int = 64
    noise_sigma: float = 1.0
    self_transition_prob: float = 0.97
    skip_prob: float = 0.1
    seed: int = 0

    def validate(self):
        problems = []
        if self.num_classes < 2:
            problems.append(f"num_classes must be >= 2, got {self.num_classes}")
        if self.num_videos < 1:
            problems.append(f"num_videos must be >= 1, got {self.num_videos}")
        if self.t_min < 10:
            problems.append(f"t_min must be >= 10, got {self.t_min}")
        if self.t_max < self.t_min:
            problems.append(f"t_max {self.t_max} < t_min {self.t_min}")
        if self.feature_dim < 2:
            problems.append(f"feature_dim must be >= 2, got {self.feature_dim}")
        if not 0.0 <= self.self_transition_prob <= 1.0:
            problems.append(f"self_transition_prob must be in [0, 1], got {self.self_transition_prob}")
        if not 0.0 <= self.skip_prob <= 1.0:
            problems.append(f"skip_prob must be in [0, 1], got {self.skip_prob}")
        if self.noise_sigma < 0:
            problems.append(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if problems:
            raise ConfigError("invalid synth config: " + "; ".join(problems))


def _class_means(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """Gaussian class centers with pairwise distance >= 4 sigma.

    Draws unit-scale centers, rejecting degenerate draws; if the minimum
    pairwise distance still falls short (small feature_dim or large sigma)
    the centers are scaled up just enough to meet the guarantee.
    """
    required = max(4.0 * cfg.noise_sigma, 1e-6)
    for _ in range(200):
        means = rng.normal(0.0, 1.0, size=(cfg.num_classes, cfg.feature_dim))
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
        dists[np.diag_indices(cfg.num_classes)] = np.inf
        closest = dists.min()
        if closest <= 0.0:
            continue
        if closest < required:
            means *= 1.001 * required / closest
        return means
    raise ConfigError(f"could not draw {cfg.num_classes} distinct class means")


def _phase_labels(rng: np.random.Generator, cfg: SynthConfig, T: int) -> np.ndarray:
    """Left-to-right chain: stay with self_transition_prob, otherwise advance
    by one phase, or by two with skip_prob (a skipped phase)."""
    labels = np.empty(T, dtype=np.int64)
    state = 0
    last = cfg.num_classes - 1
    for t in range(T):
        labels[t] = state
        if state < last and rng.random() >= cfg.self_transition_prob:
            step = 2 if rng.random() < cfg.skip_prob else 1
            state = min(state + step, last)
    return labels


def synthetic_class_means(cfg: SynthConfig) -> np.ndarray:
    """The class centers generate_synthetic(cfg) will use (num_classes, feature_dim)."""
    cfg.validate()
    return _class_means(np.random.default_rng(cfg.seed), cfg)


def generate_synthetic(cfg: SynthConfig) -> tuple[list[VideoSample], list[VideoSample], dict[int, str]]:
    """Pure function of the config: (train videos, test videos, class mapping).

    The first 80% (rounded down, at least 1) of the videos are the train
    split. Features are the class mean plus isotropic Gaussian noise.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    means = _class_means(rng, cfg)
    videos = []
    for i in range(cfg.num_videos):
        T = int(rng.integers(cfg.t_min, cfg.t_max + 1))
        labels = _phase_labels(rng, cfg, T)
        noise = rng.normal(0.0, cfg.noise_sigma, size=(T, cfg.feature_dim)) if cfg.noise_sigma > 0 \
            else np.zeros((T, cfg.feature_dim))
        features = (means[labels] + noise).astype(np.float32)
        videos.append(VideoSample(id=f"video_{i:03d}", features=features, labels=labels))
    n_train = max(1, int(cfg.num_videos * 0.8)) if cfg.num_videos > 1 else 1
    mapping = {c: f"phase_{c}" for c in range(cfg.num_classes)}
    return videos[:n_train], videos[n_train:], mapping


def write_dataset(root, train: list[VideoSample], test: list[VideoSample],
                  mapping: dict[int, str]) -> DatasetManifest:
    """Materialize samples in the standard directory layout."""
    os.makedirs(os.path.join(root, "features"), exist_ok=True)
    os.makedirs(os.path.join(root, "labels"), exist_ok=True)
    os.makedirs(os.path.join(root, "splits"), exist_ok=True)
    for sample in [*train, *test]:
        write_feature_file(os.path.join(root, "features", f"{sample.id}.msfeat"), sample.features)
        write_labels(os.path.join(root, "labels", f"{sample.id}.txt"), sample.labels)
    with open(os.path.join(root, "mapping.txt"), "w", encoding="utf-8") as fh:
        for cid in sorted(mapping):
            fh.write(f"{cid} {mapping[cid]}\n")
    for name, samples in (("train", train), ("test", test)):
        with open(os.path.join(root, "splits", f"{name}.txt"), "w", encoding="utf-8") as fh:
            for sample in samples:
                fh.write(f"{sample.id}\n")
    return load_manifest(root)


def validate_dataset(manifest: DatasetManifest) -> list[str]:
    """Returns one entry per violation; an empty list means the tree is sound."""
    violations = []
    ids = sorted(mapping_id for mapping_id in manifest.mapping)
    if ids != list(range(len(ids))):
        violations.append(f"mapping ids not dense 0..{len(ids) - 1}: {ids}")
    dims = {}
    for split in ("train", "test"):
        for vid in manifest.split_ids(split):
            fpath = manifest.feature_path(vid)
            if not os.path.exists(fpath):
                violations.append(f"{vid}: missing feature file {fpath}")
                continue
            try:
                features = read_feature_file(fpath)
            except (FileFormatError, DataError) as exc:
                violations.append(f"{vid}: unreadable features: {exc}")
                continue
            dims[vid] = features.shape[1]
            lpath = manifest.label_path(vid)
            if not os.path.exists(lpath):
                violations.append(f"{vid}: missing label file {lpath}")
                continue
            try:
                check_class_ids(read_labels(lpath, features.shape[0]), manifest.num_classes, lpath)
            except DataError as exc:
                violations.append(f"{vid}: {exc}")
    if dims:
        common = max(set(dims.values()), key=lambda d: sum(1 for v in dims.values() if v == d))
        for vid, d in sorted(dims.items()):
            if d != common:
                violations.append(f"{vid}: feature dim {d} differs from majority dim {common}")
    return violations
