import os
import struct
import tracemalloc

import numpy as np
import pytest

from msast.data import (
    FEATURE_MAGIC,
    _Reader,
    _class_means,
    SynthConfig,
    generate_synthetic,
    load_manifest,
    load_split,
    load_video,
    read_feature_file,
    read_labels,
    read_mapping,
    read_split,
    read_text_lines,
    write_dataset,
    write_feature_file,
    write_labels,
)
from msast.errors import ConfigError, DataError, FileFormatError
from msast.metrics import segments_from_labels


# --- feature files -------------------------------------------------------------

def test_feature_round_trip_bit_exact(tmp_path, rng):
    path = tmp_path / "x.msfeat"
    features = rng.normal(size=(5, 3)).astype(np.float32)
    write_feature_file(path, features)
    back = read_feature_file(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, features)
    # a second write of the read-back data is byte-identical
    path2 = tmp_path / "y.msfeat"
    write_feature_file(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_feature_file_exact_length(tmp_path):
    path = tmp_path / "one.msfeat"
    write_feature_file(path, np.array([[1.0]], dtype=np.float32))
    assert path.stat().st_size == 8 + 4 + 4 + 4


def test_feature_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.msfeat"
    write_feature_file(path, np.zeros((2, 2), dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[:8] = b"MSFEAT00"
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="magic"):
        read_feature_file(path)


@pytest.mark.parametrize("case", ["shorter_than_magic", "magic_plus_4_bytes", "truncated_payload",
                                  "header_claims_u32_max_squared"])
def test_feature_truncation_rejected(tmp_path, case):
    path = tmp_path / "short.msfeat"
    write_feature_file(path, np.zeros((3, 2), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes({
        "shorter_than_magic": blob[:5],
        "magic_plus_4_bytes": blob[:12],
        "truncated_payload": blob[:-5],
        "header_claims_u32_max_squared": blob[:8] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + blob[16:],
    }[case])
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="truncated"):
            read_feature_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # nothing sized from the header: the peak stays near the file's own size
    assert peak < 10 * len(blob) + 100_000


def test_feature_file_shrinking_mid_read_rejected(tmp_path):
    # the header fits the size seen at open; the payload read then comes back
    # short (the payload is larger than any read buffer)
    path = tmp_path / "shrinks.msfeat"
    write_feature_file(path, np.zeros((1 << 18, 2), dtype=np.float32))
    with _Reader(path) as r:
        r.magic(FEATURE_MAGIC)
        T, D = r.unpack("<II", "header")
        os.truncate(path, 100)
        with pytest.raises(FileFormatError, match="truncated: values needs 2097152 bytes at offset 16"):
            r.floats((T, D), "values")


def test_feature_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.msfeat"
    write_feature_file(path, np.zeros((3, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(FileFormatError, match="trailing"):
        read_feature_file(path)


def test_feature_rejects_non_finite(tmp_path):
    with pytest.raises(DataError):
        write_feature_file(tmp_path / "nan.msfeat", np.array([[np.nan]], dtype=np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_read_rejects_non_finite(tmp_path, bad):
    # the writer refuses such payloads, so the bytes are built by hand
    payload = np.zeros((20, 8), dtype="<f4")
    payload[3, 5] = bad
    path = tmp_path / "nan.msfeat"
    path.write_bytes(b"MSFEAT01" + struct.pack("<II", 20, 8) + payload.tobytes())
    with pytest.raises(DataError, match="non-finite feature value at offset 132"):
        read_feature_file(path)


# --- labels / mapping / splits ----------------------------------------------------

def test_read_labels_basic(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\n0\n1\n")
    assert np.array_equal(read_labels(path, 3), [0, 0, 1])


def test_read_labels_count_mismatch(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\n1\n")
    with pytest.raises(DataError, match="expected 3.*found 2"):
        read_labels(path, 3)


def test_read_labels_non_integer(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\nnope\n1\n")
    with pytest.raises(DataError, match="line 2"):
        read_labels(path, 3)


@pytest.mark.parametrize("value", ["99999999999999999999999", "-9223372036854775809"])
def test_read_labels_outside_int64_names_file_and_line(tmp_path, value):
    path = tmp_path / "l.txt"
    path.write_text(f"0\n{value}\n1\n")
    with pytest.raises(DataError, match=f"{path}: label '{value}' on line 2 does not fit in int64"):
        read_labels(path, 3)
    path.write_text("9223372036854775807\n-9223372036854775808\n")
    assert read_labels(path, 2).tolist() == [2 ** 63 - 1, -2 ** 63]


def test_reader_skip_is_bounds_checked(tmp_path):
    path = tmp_path / "b.bin"
    path.write_bytes(bytes(range(10)))
    with _Reader(path) as r:
        r.skip(4, "gap")
        assert r.take(2, "next") == bytes([4, 5])
        with pytest.raises(FileFormatError, match="truncated: tail needs 5 bytes at offset 6, 4 left"):
            r.skip(5, "tail")
        r.skip(4, "tail")
        r.end()


def test_text_lines_skip_blanks_and_keep_file_line_numbers(tmp_path):
    path = tmp_path / "l.txt"
    path.write_text("0\n\n  \n nope \n1\n")
    assert read_text_lines(path) == [(1, "0"), (4, "nope"), (5, "1")]
    with pytest.raises(DataError, match="non-integer label 'nope' on line 4"):
        read_labels(path, 3)


def test_labels_round_trip(tmp_path, rng):
    path = tmp_path / "l.txt"
    labels = rng.integers(0, 5, size=17)
    write_labels(path, labels)
    assert np.array_equal(read_labels(path, 17), labels)


def test_read_mapping_seven_phases(tmp_path):
    path = tmp_path / "mapping.txt"
    names = ["Preparation", "CalotTriangleDissection", "ClippingCutting",
             "GallbladderDissection", "GallbladderPackaging",
             "CleaningCoagulation", "GallbladderRetraction"]
    path.write_text("".join(f"{i} {n}\n" for i, n in enumerate(names)))
    mapping = read_mapping(path)
    assert len(mapping) == 7
    assert mapping[6] == "GallbladderRetraction"


def test_read_mapping_rejects_duplicates_and_gaps(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("0 a\n0 b\n")
    with pytest.raises(DataError, match="duplicate"):
        read_mapping(path)
    path.write_text("0 a\n2 b\n")
    with pytest.raises(DataError, match="dense"):
        read_mapping(path)


def test_read_split_rejects_duplicates(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text("vid1\nvid1\n")
    with pytest.raises(DataError, match="duplicate"):
        read_split(path)


# --- synthetic generation ------------------------------------------------------------

def test_synth_deterministic_trees(tmp_path):
    cfg = SynthConfig(num_videos=4, t_min=20, t_max=30, feature_dim=5, seed=13)
    for sub in ("a", "b"):
        train, test, mapping = generate_synthetic(cfg)
        write_dataset(tmp_path / sub, train, test, mapping)
    files_a = sorted((tmp_path / "a").rglob("*"))
    files_b = sorted((tmp_path / "b").rglob("*"))
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        if fa.is_file():
            assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_synth_sigma_zero_gives_exact_centroids():
    cfg = SynthConfig(num_videos=2, t_min=15, t_max=15, feature_dim=4,
                      noise_sigma=0.0, seed=3)
    train, test, _ = generate_synthetic(cfg)
    samples = train + test
    # all frames of one class share one exact feature vector
    centroids = {}
    for sample in samples:
        for c in np.unique(sample.labels):
            rows = sample.features[sample.labels == c]
            assert (rows == rows[0]).all()
            if c in centroids:
                assert np.array_equal(centroids[c], rows[0])
            else:
                centroids[c] = rows[0]
    # nearest-centroid classification is perfect
    for sample in samples:
        mus = np.stack([centroids[c] for c in sorted(centroids)])
        ids = sorted(centroids)
        dists = np.linalg.norm(sample.features[:, None, :] - mus[None], axis=-1)
        pred = np.array([ids[i] for i in dists.argmin(axis=1)])
        assert (pred == sample.labels).mean() == 1.0


def test_synth_labels_nondecreasing_with_bounded_steps():
    cfg = SynthConfig(num_videos=12, t_min=30, t_max=60, skip_prob=0.5, seed=21)
    train, test, _ = generate_synthetic(cfg)
    saw_skip = False
    for sample in train + test:
        steps = np.diff(sample.labels)
        assert (steps >= 0).all(), "phases never go backward"
        assert set(np.unique(steps)).issubset({0, 1, 2})
        saw_skip = saw_skip or (steps == 2).any()
        segments_from_labels(sample.labels)  # valid maximal segments
    assert saw_skip, "skip_prob=0.5 should produce at least one skipped phase"


@pytest.mark.parametrize("dim,sigma", [(16, 1.0), (3, 2.0), (64, 1.0)])
def test_synth_class_separation_at_least_4_sigma(dim, sigma):
    cfg = SynthConfig(num_videos=1, t_min=10, t_max=10, feature_dim=dim,
                      noise_sigma=sigma, seed=5)
    means = _class_means(np.random.default_rng(cfg.seed), cfg)
    d = np.linalg.norm(means[:, None] - means[None], axis=-1)
    d[np.diag_indices(len(means))] = np.inf
    assert d.min() >= 4.0 * sigma


def test_synth_means_match_sigma_zero_features():
    cfg = SynthConfig(num_videos=1, t_min=20, t_max=20, feature_dim=8,
                      noise_sigma=0.0, self_transition_prob=0.5, seed=4)
    means = _class_means(np.random.default_rng(cfg.seed), cfg).astype(np.float32)
    train, test, _ = generate_synthetic(cfg)
    for sample in train + test:
        assert np.array_equal(sample.features, means[sample.labels])


def test_synth_80_20_split():
    cfg = SynthConfig(num_videos=50, t_min=10, t_max=12, feature_dim=3, seed=1)
    train, test, _ = generate_synthetic(cfg)
    assert len(train) == 40 and len(test) == 10


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(num_videos=0).validate()
    with pytest.raises(ConfigError):
        SynthConfig(t_min=5).validate()
    with pytest.raises(ConfigError):
        SynthConfig(self_transition_prob=1.5).validate()




# --- dataset tree ----------------------------------------------------------

@pytest.fixture
def small_tree(tmp_path):
    cfg = SynthConfig(num_videos=5, t_min=15, t_max=25, feature_dim=4, seed=2)
    train, test, mapping = generate_synthetic(cfg)
    manifest = write_dataset(tmp_path / "data", train, test, mapping)
    return manifest


def test_dataset_layout_and_loading(small_tree):
    manifest = small_tree
    assert os.path.isdir(os.path.join(manifest.root, "features"))
    assert len(manifest.split_ids("train")) == 4 and len(manifest.split_ids("test")) == 1
    samples = load_split(manifest, "train")
    assert all(s.labels is not None and len(s.labels) == s.features.shape[0] for s in samples)
    reload = load_manifest(manifest.root)
    assert reload.mapping == manifest.mapping


@pytest.mark.parametrize("bad_label", [-1, 7])
def test_out_of_range_label_rejected(small_tree, bad_label):
    assert small_tree.num_classes == 7
    victim = small_tree.split_ids("train")[2]
    path = small_tree.label_path(victim)
    labels = read_labels(path, read_feature_file(small_tree.feature_path(victim)).shape[0])
    labels[4] = bad_label
    write_labels(path, labels)
    with pytest.raises(DataError, match=rf"class id {bad_label} at frame 4 out of range"):
        load_video(small_tree, victim)

