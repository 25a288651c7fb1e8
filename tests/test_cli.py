import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from msast.cli import main
from msast.data import read_feature_file, write_feature_file
from msast.errors import FileFormatError
from msast.model import ModelConfig, build_model
from msast.training import CHECKPOINT_MAGIC, AdamState, load_checkpoint, save_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    root = tmp_path / "data"
    code = run("synth", "--out", root, "--videos", 6, "--classes", 3, "--dim", 5,
               "--tmin", 20, "--tmax", 30, "--sigma", 0.5, "--stay", 0.85, "--seed", 3)
    assert code == 0
    return root


def write_config(path, data_root, **extra):
    values = {
        "kernels": "3,5",
        "layers_per_stage": 2,
        "feature_maps": 8,
        "epochs": 2,
        "learning_rate": 0.001,
        "seed": 3,
        "data_root": data_root,
        **extra,
    }
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


@pytest.fixture
def config(tmp_path, dataset):
    return write_config(tmp_path / "run.cfg", dataset)


# --- synth ---------------------------------------------------------------------

def test_synth_deterministic_trees(tmp_path):
    for sub in ("a", "b"):
        assert run("synth", "--out", tmp_path / sub, "--videos", 4, "--dim", 4,
                   "--tmin", 15, "--tmax", 20, "--seed", 9) == 0
    for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_synth_default_classes_is_seven(tmp_path):
    assert run("synth", "--out", tmp_path / "d", "--videos", 2, "--dim", 4,
               "--tmin", 15, "--tmax", 16) == 0
    mapping = (tmp_path / "d" / "mapping.txt").read_text().strip().split("\n")
    assert len(mapping) == 7


def test_synth_zero_videos_usage_error(tmp_path):
    assert run("synth", "--out", tmp_path / "d", "--videos", 0) == 2


# --- train ----------------------------------------------------------------------

def test_train_writes_checkpoint_and_history(tmp_path, config, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert run("train", "--config", config, "--out", ckpt) == 0
    blob = ckpt.read_bytes()
    assert blob[:8] == CHECKPOINT_MAGIC
    history = (tmp_path / "model.ckpt.history.txt").read_text().strip().split("\n")
    assert len(history) == 2 and history[0].startswith("epoch 1 loss ")
    out = capsys.readouterr().out
    assert "resolved train config" in out
    assert "data_root" in out
    model, _ = load_checkpoint(ckpt)
    assert model.cfg.num_decoders == 3 and not model.cfg.causal


def test_train_causal_flag_one_decoder(tmp_path, config):
    ckpt = tmp_path / "causal.ckpt"
    assert run("train", "--config", config, "--causal", "--out", ckpt) == 0
    model, _ = load_checkpoint(ckpt)
    assert model.cfg.causal is True
    assert model.cfg.num_decoders == 1


def test_train_deterministic_checkpoints(tmp_path, config):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert run("train", "--config", config, "--out", a) == 0
    assert run("train", "--config", config, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_unknown_config_key_exit_2(tmp_path, dataset):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"data_root={dataset}\nbogus_key=1\n")
    assert run("train", "--config", cfg, "--out", tmp_path / "x.ckpt") == 2


@pytest.mark.parametrize("target", ["labels", "mapping", "split", "config"])
def test_train_non_utf8_text_exit_2(tmp_path, dataset, config, target):
    path = {
        "labels": dataset / "labels" / "video_000.txt",
        "mapping": dataset / "mapping.txt",
        "split": dataset / "splits" / "train.txt",
        "config": config,
    }[target]
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    assert run("train", "--config", config, "--out", tmp_path / "x.ckpt") == 2


def test_train_set_overrides(tmp_path, config):
    ckpt = tmp_path / "o.ckpt"
    assert run("train", "--config", config, "--out", ckpt,
               "--set", "num_decoders=2", "--set", "epochs=1") == 0
    model, _ = load_checkpoint(ckpt)
    assert model.cfg.num_decoders == 2
    history = (tmp_path / "o.ckpt.history.txt").read_text().strip().split("\n")
    assert len(history) == 1


# --- eval ------------------------------------------------------------------------

@pytest.fixture
def trained(tmp_path, config):
    ckpt = tmp_path / "model.ckpt"
    assert run("train", "--config", config, "--out", ckpt) == 0
    return ckpt


@pytest.fixture
def causal_trained(tmp_path, config):
    ckpt = tmp_path / "causal.ckpt"
    assert run("train", "--config", config, "--causal", "--out", ckpt) == 0
    return ckpt


def _report_dict(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, value = line.rstrip("\n").split("\t")
            out[key] = float(value)
    return out


def test_eval_oracle_mode_all_100(tmp_path, dataset, trained):
    report = tmp_path / "report.tsv"
    assert run("eval", "--ckpt", trained, "--data", dataset, "--split", "test",
               "--report", report, "--oracle") == 0
    values = _report_dict(report)
    for key in ("accuracy", "edit", "f1@10", "f1@25", "f1@50", "f1_avg",
                "precision", "recall", "jaccard"):
        assert values[key] == 100.0, key


def test_eval_report_f1_avg_consistent(tmp_path, dataset, trained):
    report = tmp_path / "report.tsv"
    assert run("eval", "--ckpt", trained, "--data", dataset, "--report", report) == 0
    values = _report_dict(report)
    mean = (values["f1@10"] + values["f1@25"] + values["f1@50"]) / 3
    assert values["f1_avg"] == pytest.approx(mean, abs=0.01)
    assert "accuracy_mean" in values and "accuracy_std" in values
    assert any(key.startswith("video.") for key in values)


def test_eval_ribbons_written(tmp_path, dataset, trained):
    ribbon_dir = tmp_path / "ribbons"
    assert run("eval", "--ckpt", trained, "--data", dataset,
               "--report", tmp_path / "r.tsv", "--ribbon", ribbon_dir) == 0
    files = sorted(os.listdir(ribbon_dir))
    assert files and all(f.endswith(".ppm") for f in files)
    first = (ribbon_dir / files[0]).read_bytes()
    assert first.startswith(b"P6\n")


def test_eval_ribbon_over_palette_exit_2_before_output(tmp_path):
    # 20 classes, as in 50Salads' 19 plus one: more than the 16 palette colors
    data = tmp_path / "data20"
    assert run("synth", "--out", data, "--videos", 3, "--classes", 20, "--dim", 4,
               "--tmin", 40, "--tmax", 50, "--seed", 1) == 0
    ckpt = tmp_path / "c20.ckpt"
    model = build_model(ModelConfig(input_dim=4, num_classes=20, kernels=(3,), layers_per_stage=1,
                                    feature_maps=4, num_decoders=1), seed=0)
    save_checkpoint(model, AdamState.init(model), ckpt)
    ribbon_dir, report = tmp_path / "ribbons", tmp_path / "r.tsv"
    assert run("eval", "--ckpt", ckpt, "--data", data, "--split", "train", "--oracle",
               "--report", report, "--ribbon", ribbon_dir) == 2
    assert not ribbon_dir.exists()
    assert not report.exists()


def test_eval_missing_split_exit_2(tmp_path, dataset, trained):
    os.remove(dataset / "splits" / "test.txt")
    assert run("eval", "--ckpt", trained, "--data", dataset,
               "--report", tmp_path / "r.tsv") == 2


def test_eval_negative_label_exit_2(tmp_path, dataset, trained):
    victim = (dataset / "splits" / "test.txt").read_text().split()[0]
    label_file = dataset / "labels" / f"{victim}.txt"
    lines = label_file.read_text().split("\n")
    lines[0] = "-1"
    label_file.write_text("\n".join(lines))
    report = tmp_path / "r.tsv"
    assert run("eval", "--ckpt", trained, "--data", dataset, "--split", "test",
               "--report", report) == 2
    assert not report.exists()


def test_eval_dim_mismatch_exit_5(tmp_path, dataset, trained):
    for vid_file in (dataset / "features").iterdir():
        features = read_feature_file(vid_file)
        write_feature_file(vid_file, np.zeros((features.shape[0], 9), dtype=np.float32))
    assert run("eval", "--ckpt", trained, "--data", dataset,
               "--report", tmp_path / "r.tsv") == 5


# --- predict / stream -----------------------------------------------------------------

def test_predict_line_count_and_determinism(tmp_path, dataset, trained):
    feature_file = next((dataset / "features").iterdir())
    T = read_feature_file(feature_file).shape[0]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("predict", "--ckpt", trained, "--features", feature_file, "--out", a) == 0
    assert run("predict", "--ckpt", trained, "--features", feature_file, "--out", b) == 0
    lines = a.read_text().strip().split("\n")
    assert len(lines) == T
    assert all(line.isdigit() for line in lines)
    assert a.read_bytes() == b.read_bytes()


def test_predict_non_finite_features_exit_2(tmp_path, dataset, trained):
    feature_file = next((dataset / "features").iterdir())
    blob = bytearray(feature_file.read_bytes())
    blob[16:20] = np.array([np.nan], dtype="<f4").tobytes()
    bad = tmp_path / "nan.msfeat"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "o.txt"
    assert run("predict", "--ckpt", trained, "--features", bad, "--out", out) == 2
    assert not out.exists()


def test_stream_requires_causal_exit_6(tmp_path, dataset, trained):
    feature_file = next((dataset / "features").iterdir())
    assert run("stream", "--ckpt", trained, "--features", feature_file,
               "--out", tmp_path / "s.txt") == 6


@pytest.mark.parametrize("command", ["predict", "stream"])
def test_zero_frame_features_exit_5_before_output(tmp_path, causal_trained, command, capsys):
    empty = tmp_path / "empty.msfeat"
    write_feature_file(empty, np.zeros((0, 5), dtype=np.float32))
    assert read_feature_file(empty).shape == (0, 5)
    out = tmp_path / "o.txt"
    assert run(command, "--ckpt", causal_trained, "--features", empty, "--out", out) == 5
    assert "no frames" in capsys.readouterr().err
    assert not out.exists()


def test_stream_matches_predict(tmp_path, dataset, causal_trained, capsys):
    for feature_file in sorted((dataset / "features").iterdir())[:3]:
        pred_file = tmp_path / f"{feature_file.stem}.predict.txt"
        stream_file = tmp_path / f"{feature_file.stem}.stream.txt"
        assert run("predict", "--ckpt", causal_trained, "--features", feature_file,
                   "--out", pred_file) == 0
        capsys.readouterr()
        assert run("stream", "--ckpt", causal_trained, "--features", feature_file,
                   "--out", stream_file) == 0
        assert pred_file.read_bytes() == stream_file.read_bytes()
        latency = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("forward_stream per frame:")]
        assert len(latency) == 1
        assert re.fullmatch(r"forward_stream per frame: p50 \d+\.\d\d ms, p99 \d+\.\d\d ms",
                            latency[0])


def test_predict_consistent_with_eval(tmp_path, dataset, trained):
    # the report's per-video accuracy must equal accuracy recomputed from
    # cmd_predict's output on the same video
    report = tmp_path / "report.tsv"
    assert run("eval", "--ckpt", trained, "--data", dataset, "--report", report) == 0
    values = _report_dict(report)
    vid = (dataset / "splits" / "test.txt").read_text().split()[0]
    pred_file = tmp_path / "p.txt"
    assert run("predict", "--ckpt", trained,
               "--features", dataset / "features" / f"{vid}.msfeat",
               "--out", pred_file) == 0
    pred = np.array([int(line) for line in pred_file.read_text().split()])
    gt = np.array([int(line) for line in (dataset / "labels" / f"{vid}.txt").read_text().split()])
    accuracy = 100.0 * (pred == gt).mean()
    assert values[f"video.{vid}.accuracy"] == pytest.approx(accuracy, abs=1e-3)


def test_train_non_finite_exit_4(tmp_path, dataset):
    # blow up float32 through the attention logits -> numeric abort
    for vid_file in (dataset / "features").iterdir():
        T = read_feature_file(vid_file).shape[0]
        write_feature_file(vid_file, np.full((T, 5), 1e20, dtype=np.float32))
    cfg = write_config(tmp_path / "hot.cfg", dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", "--config", cfg, "--out", tmp_path / "x.ckpt") == 4


def test_missing_checkpoint_exit_2(tmp_path, dataset):
    feature_file = next((dataset / "features").iterdir())
    assert run("predict", "--ckpt", tmp_path / "nope.ckpt",
               "--features", feature_file, "--out", tmp_path / "o.txt") == 2


def _entries(blob):
    """(offset, name, dims) of each parameter entry of a checkpoint, in file order."""
    n_kernels = int.from_bytes(blob[12:16], "little")
    pos = 16 + 4 * n_kernels + 4 * 8
    count = int.from_bytes(blob[pos:pos + 4], "little")
    pos += 4
    for _ in range(count):
        name_len = int.from_bytes(blob[pos:pos + 2], "little")
        rank = blob[pos + 2 + name_len]
        dims_at = pos + 3 + name_len
        dims = struct.unpack(f"<{rank}I", blob[dims_at:dims_at + 4 * rank])
        yield pos, blob[pos + 2:pos + 2 + name_len], dims
        pos = dims_at + 4 * rank + 4 * math.prod(dims)


def _corrupt(blob, case):
    blob = bytearray(blob)
    if case == "non_utf8_name":
        pos, name, _ = next(_entries(blob))
        blob[pos + 2:pos + 2 + len(name)] = b"\xff" * len(name)
    elif case == "dims_product_wraps_to_zero":
        pos, name, _ = next(e for e in _entries(blob) if len(e[2]) == 3)
        dims_at = pos + 3 + len(name)
        blob[dims_at:dims_at + 12] = struct.pack("<3I", 2 ** 31, 2 ** 31, 4)  # 2**64 wraps int64
    else:
        fields_at = 16 + 4 * int.from_bytes(blob[12:16], "little")  # layers_per_stage, then the rest
        offset, value = {"feature_maps_100000": (fields_at + 4, 100000), "kernels0_is_4": (16, 4),
                         "causal_flag_7": (fields_at + 20, 7)}[case]
        blob[offset:offset + 4] = value.to_bytes(4, "little")
    return bytes(blob)


@pytest.mark.parametrize("case", ["non_utf8_name", "dims_product_wraps_to_zero",
                                  "feature_maps_100000", "kernels0_is_4", "causal_flag_7"])
def test_corrupt_checkpoint_rejected_before_allocation_exit_3(tmp_path, dataset, case):
    model = build_model(ModelConfig(input_dim=5, num_classes=3, kernels=(3, 5), layers_per_stage=2,
                                    feature_maps=8, num_decoders=1, causal=True), seed=0)
    good = tmp_path / "good.ckpt"
    save_checkpoint(model, AdamState.init(model), good)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_corrupt(good.read_bytes(), case))
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError):
            load_checkpoint(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # nothing sized from the header: the peak stays near the file's own size
    assert peak < 10 * good.stat().st_size + 100_000
    feature_file = next((dataset / "features").iterdir())
    out = tmp_path / "o.txt"
    assert run("predict", "--ckpt", bad, "--features", feature_file, "--out", out) == 3
    assert not out.exists()


def test_corrupt_checkpoint_exit_3(tmp_path, dataset, trained):
    bad = tmp_path / "bad.ckpt"
    blob = bytearray(trained.read_bytes())
    blob[0] ^= 0xFF
    bad.write_bytes(bytes(blob))
    feature_file = next((dataset / "features").iterdir())
    assert run("predict", "--ckpt", bad, "--features", feature_file,
               "--out", tmp_path / "o.txt") == 3
