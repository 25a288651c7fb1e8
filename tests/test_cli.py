import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from msast import cli, training
from msast.cli import main
from msast.data import SynthConfig, VideoSample, load_manifest, load_video, read_feature_file, \
    write_dataset, write_feature_file
from msast.errors import FileFormatError
from msast.metrics import ribbon_color
from msast.model import ENTRY_BYTES, ModelConfig, build_model
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


def test_synth_flag_defaults_are_synth_config_defaults(tmp_path, capsys):
    out = tmp_path / "d"
    assert run("synth", "--out", out) == 0
    resolved = dict(line.strip().split(" = ") for line in capsys.readouterr().out.splitlines()
                    if line.startswith("  "))
    expected = {key: str(value) for key, value in dataclasses.asdict(SynthConfig()).items()}
    assert resolved == expected | {"out": str(out)}


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


def test_train_split_key_is_unknown_exit_2(tmp_path, dataset, config, capsys):
    # train always reads the train split, so a split key would be accepted and ignored
    cfg = write_config(tmp_path / "split.cfg", dataset, split="test")
    assert run("train", "--config", cfg, "--out", tmp_path / "x.ckpt") == 2
    assert "unknown config key 'split'" in capsys.readouterr().err
    assert run("train", "--config", config, "--out", tmp_path / "x.ckpt", "--set", "split=test") == 2
    assert capsys.readouterr().err == "error: --set: unknown config key 'split'\n"
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("setting, message", [
    ("kernels=3,x", "kernels must be a comma list of ints, got '3,x'"),
    ("causal=maybe", "causal must be a boolean, got 'maybe'"),
    ("epochs=two", "epochs must be an integer, got 'two'"),
    ("dropout=half", "dropout must be a number, got 'half'"),
])
def test_train_malformed_value_exit_2(tmp_path, config, capsys, setting, message):
    assert run("train", "--config", config, "--out", tmp_path / "x.ckpt", "--set", setting) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("setting", ["learning_rate=nan", "learning_rate=inf", "smooth_lambda=nan"])
def test_train_non_finite_hyperparameter_exit_2(tmp_path, config, capsys, setting):
    assert run("train", "--config", config, "--out", tmp_path / "x.ckpt", "--set", setting) == 2
    key, value = setting.split("=")
    assert f"{key} must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("command, setting", [("synth", "nan"), ("synth", "inf"),
                                              ("train", "alpha_base=inf")])
def test_non_finite_model_or_synth_value_exit_2(tmp_path, config, capsys, command, setting):
    out = tmp_path / "out"
    argv = {"synth": ("synth", "--out", out, "--videos", 2, "--sigma", setting),
            "train": ("train", "--config", config, "--out", out, "--set", setting)}[command]
    assert run(*argv) == 2
    key = {"synth": "noise_sigma", "train": "alpha_base"}[command]
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_exit_2(tmp_path, config, capsys, command):
    out = tmp_path / "out"
    argv = {"synth": ("synth", "--out", out, "--videos", 2, "--seed", -1),
            "train": ("train", "--config", config, "--out", out, "--set", "seed=-1")}[command]
    assert run(*argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_train_model_too_big_for_memory_exit_2_before_allocation(tmp_path, dataset, capsys,
                                                                monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the model was allocated")

    monkeypatch.setattr(cli, "build_model", allocate)
    config = write_config(tmp_path / "big.cfg", dataset, feature_maps=99999999)
    out = tmp_path / "x.ckpt"
    assert run("train", "--config", config, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GiB of physical memory" in captured.err
    assert not out.exists()


_UNDER_RLIMIT_AS = """
import resource, sys
from msast import cli, model
if sys.argv[1] == "admit":  # as if the bound had let the model through
    model.ModelConfig.violations = lambda self: []
mapped = resource.getpagesize() * int(open("/proc/self/statm").read().split()[0])
resource.setrlimit(resource.RLIMIT_AS, (mapped + (int(sys.argv[2]) << 20), resource.RLIM_INFINITY))
sys.exit(cli.main(sys.argv[3:]))
"""


def _train_under_rlimit_as(tmp_path, dataset, headroom_mb: int, admit: bool):
    """`train --set feature_maps=400` (2.8 GiB of weights and moments) in a
    fresh process whose address space may grow `headroom_mb` past what it
    maps after its imports."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    config = tmp_path / "wide.cfg"
    config.write_text(f"data_root={dataset}\nepochs=1\n")
    argv = ["admit" if admit else "bound", str(headroom_mb), "train", "--config", str(config),
            "--out", str(tmp_path / "x.ckpt"), "--set", "feature_maps=400"]
    return subprocess.run([sys.executable, "-c", _UNDER_RLIMIT_AS, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_train_model_past_rlimit_as_exit_2_before_allocation(tmp_path, dataset):
    done = _train_under_rlimit_as(tmp_path, dataset, headroom_mb=1024, admit=False)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "GiB that RLIMIT_AS leaves beside the" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x.ckpt").exists()


def test_train_weights_that_cannot_be_allocated_exit_7(tmp_path, dataset):
    done = _train_under_rlimit_as(tmp_path, dataset, headroom_mb=256, admit=True)
    assert done.returncode == 7, done.stderr
    assert "error: out of memory allocating the weights" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x.ckpt").exists()


def _entry_bound_layers() -> int:
    """A layer count at which a causal C=1, kernels (3,), 1-decoder model
    fits physical memory by the 12 bytes a float32 scalar costs with its
    Adam moments (22 scalars a layer) but not by the per-entry cost (16
    entries a layer)."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    layers = have // (16 * ENTRY_BYTES) + 1
    scalars, entries = ModelConfig(input_dim=5, num_classes=3, kernels=(3,), causal=True,
                                   num_decoders=1, feature_maps=1,
                                   layers_per_stage=layers).parameter_count()
    assert 12 * scalars < have < ENTRY_BYTES * entries
    return layers


def test_train_model_with_too_many_entries_exit_2_before_allocation(tmp_path, dataset, capsys,
                                                                   monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the model was allocated")

    monkeypatch.setattr(cli, "build_model", allocate)
    config = write_config(tmp_path / "deep.cfg", dataset, kernels=3, causal="true",
                          num_decoders=1, feature_maps=1, layers_per_stage=_entry_bound_layers())
    out = tmp_path / "x.ckpt"
    assert run("train", "--config", config, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GiB of physical memory" in captured.err
    assert not out.exists()


def test_checkpoint_with_too_many_entries_exit_3_before_any_entry(tmp_path, dataset, capsys,
                                                                  monkeypatch):
    model = build_model(ModelConfig(input_dim=5, num_classes=3, kernels=(3,), causal=True,
                                    num_decoders=1, feature_maps=1, layers_per_stage=1), seed=0)
    ckpt = tmp_path / "deep.ckpt"
    save_checkpoint(model, AdamState.init(model), ckpt)
    blob = bytearray(ckpt.read_bytes())
    # layers_per_stage follows magic(8), version(4), kernel count(4) and one kernel(4)
    blob[20:24] = struct.pack("<I", _entry_bound_layers())
    ckpt.write_bytes(bytes(blob))

    def read(*args, **kwargs):
        raise AssertionError("an entry was read")

    monkeypatch.setattr(training, "_read_entry", read)
    out = tmp_path / "labels.txt"
    assert run("predict", "--ckpt", ckpt, "--features", dataset / "features" / "video_000.msfeat",
               "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GiB of physical memory" in captured.err
    assert not out.exists()


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


# two fixed (pred, gt) pairs over 3 classes, keyed by length; class 2 is absent from b's gt
REPORT_PAIRS = {
    12: ([0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 0, 2], [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]),
    9: ([0, 0, 2, 2, 0, 1, 1, 1, 1], [0, 0, 0, 0, 0, 1, 1, 1, 1]),
}


def test_eval_report_text_pinned(tmp_path, monkeypatch):
    samples = [VideoSample(vid, np.zeros((T, 4), dtype=np.float32), np.array(REPORT_PAIRS[T][1]))
               for vid, T in (("a", 12), ("b", 9))]
    write_dataset(tmp_path / "data", [], samples, {0: "x", 1: "y", 2: "z"})
    model = build_model(ModelConfig(input_dim=4, num_classes=3, kernels=(3,), layers_per_stage=1,
                                    feature_maps=4, num_decoders=1), seed=0)
    save_checkpoint(model, AdamState.init(model), tmp_path / "m.ckpt")
    monkeypatch.setattr("msast.cli.predict",
                        lambda model, features: np.array(REPORT_PAIRS[len(features)][0]))
    report = tmp_path / "r.tsv"
    assert run("eval", "--ckpt", tmp_path / "m.ckpt", "--data", tmp_path / "data",
               "--report", report) == 0
    text = report.read_text()
    lines = text.splitlines()
    assert len(lines) == 96  # pooled 27, per-video mean/std 18, video a 27, video b 24
    assert lines[:9] == ["accuracy\t80.9524", "precision\t78.2011", "recall\t80.5556",
                         "jaccard\t66.2963", "edit\t55.0000", "f1_avg\t66.6667",
                         "f1@10\t71.4286", "f1@25\t71.4286", "f1@50\t57.1429"]
    assert "f1@50_std\t20.8333" in lines and "video.b.f1@50\t33.3333" in lines
    # b's gt has no class 2, so it gets no per-class row though b predicts it
    assert "video.b.confusion_0_2\t2" in lines and "video.b.precision_2" not in text
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "302cedd2b1bf7fe3b4a427782057bdebece8e1bca0fa80ee3be4e9eb9af7a9c1"


def test_eval_ribbons_written(tmp_path, dataset, trained):
    ribbon_dir = tmp_path / "ribbons"
    assert run("eval", "--ckpt", trained, "--data", dataset,
               "--report", tmp_path / "r.tsv", "--ribbon", ribbon_dir) == 0
    files = sorted(os.listdir(ribbon_dir))
    assert files and all(f.endswith(".ppm") for f in files)
    first = (ribbon_dir / files[0]).read_bytes()
    assert first.startswith(b"P6\n")


def test_eval_ribbon_draws_20_classes(tmp_path):
    # 20 classes, as in 50Salads' 19 plus one: more than the 16 palette colors
    data = tmp_path / "data20"
    assert run("synth", "--out", data, "--videos", 3, "--classes", 20, "--dim", 4,
               "--tmin", 40, "--tmax", 50, "--stay", 0.5, "--seed", 1) == 0
    ckpt = tmp_path / "c20.ckpt"
    model = build_model(ModelConfig(input_dim=4, num_classes=20, kernels=(3,), layers_per_stage=1,
                                    feature_maps=4, num_decoders=1), seed=0)
    save_checkpoint(model, AdamState.init(model), ckpt)
    ribbon_dir = tmp_path / "ribbons"
    assert run("eval", "--ckpt", ckpt, "--data", data, "--split", "train", "--oracle",
               "--report", tmp_path / "r.tsv", "--ribbon", ribbon_dir) == 0
    manifest = load_manifest(data)
    drawn = set()
    for vid in manifest.split_ids("train"):
        labels = load_video(manifest, vid).labels
        raw = (ribbon_dir / f"{vid}.ppm").read_bytes()
        header = f"P6\n{len(labels)} 32\n255\n".encode("ascii")
        assert raw.startswith(header)
        pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(32, len(labels), 3)
        expect = np.asarray([ribbon_color(int(c)) for c in labels], dtype=np.uint8)
        assert (pixels == expect[None]).all()  # oracle: the pred band is the gt band
        drawn.update(labels.tolist())
    assert max(drawn) >= 16


def test_train_and_eval_read_only_the_split_they_use(tmp_path, config, dataset):
    os.remove(dataset / "splits" / "test.txt")
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--config", config, "--out", ckpt, "--set", "epochs=1") == 0
    report = tmp_path / "r.tsv"
    assert run("eval", "--ckpt", ckpt, "--data", dataset, "--split", "train", "--report", report) == 0
    assert report.read_text().startswith("accuracy\t")


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


def test_eval_last_video_dim_mismatch_exit_5_before_output(tmp_path, dataset, trained, capsys):
    # every earlier video is fine: nothing may be predicted, echoed or written
    victim = sorted((dataset / "splits" / "test.txt").read_text().split())[-1]
    path = dataset / "features" / f"{victim}.msfeat"
    write_feature_file(path, np.zeros((read_feature_file(path).shape[0], 9), dtype=np.float32))
    capsys.readouterr()
    report, ribbons = tmp_path / "r.tsv", tmp_path / "rib"
    assert run("eval", "--ckpt", trained, "--data", dataset, "--report", report,
               "--ribbon", ribbons) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert f"video {victim}: feature dim 9 != model input_dim 5" in err
    assert not report.exists() and not ribbons.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_split_exit_2(tmp_path, dataset, config, request, capsys, command):
    if command == "train":
        split, argv = "train", ("--config", config, "--out", tmp_path / "x.ckpt")
    else:
        split, argv = "test", ("--ckpt", request.getfixturevalue("trained"), "--data", dataset,
                               "--report", tmp_path / "r.tsv")
    (dataset / "splits" / f"{split}.txt").write_text("")
    capsys.readouterr()
    assert run(command, *argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"split '{split}' lists no videos" in err


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


@pytest.mark.parametrize("command,frames,dim", [("predict", 1, 5), ("stream", 10, 9)])
def test_unrunnable_features_exit_5_before_output(tmp_path, request, capsys, command, frames, dim):
    # an offline model needs 2 frames; either model needs input_dim columns
    ckpt = request.getfixturevalue("causal_trained" if command == "stream" else "trained")
    bad = tmp_path / "bad.msfeat"
    write_feature_file(bad, np.zeros((frames, dim), dtype=np.float32))
    out = tmp_path / "o.txt"
    capsys.readouterr()
    assert run(command, "--ckpt", ckpt, "--features", bad, "--out", out) == 5
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: {bad}: ")
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


def _blown_up(path, frames: int, finite: int, dim: int = 5):
    """A feature file whose first `finite` frames are unit normal and whose
    later values are +-5.3e37: finite, so the reader accepts them, but large
    enough that both models' logits overflow to non-finite values."""
    rng = np.random.default_rng(0)
    features = rng.normal(size=(frames, dim)).astype(np.float32)
    features[finite:] = rng.choice([-5.3e37, 5.3e37], size=(frames - finite, dim))
    write_feature_file(path, features)
    return features


@pytest.mark.parametrize("model", ["trained", "causal_trained"])
def test_predict_non_finite_logits_exit_4_without_labels(tmp_path, request, capsys, model):
    bad = tmp_path / "big.msfeat"
    _blown_up(bad, 75, 0)
    out = tmp_path / "o.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("predict", "--ckpt", request.getfixturevalue(model), "--features", bad,
                   "--out", out)
    assert code == 4
    assert capsys.readouterr().err == "error: non-finite logits at frame 0\n"
    assert not out.exists()


@pytest.mark.parametrize("model", ["trained", "causal_trained"])
def test_eval_non_finite_logits_exit_4_names_the_video_without_output(tmp_path, dataset, request,
                                                                      capsys, model):
    victim = sorted((dataset / "splits" / "test.txt").read_text().split())[-1]
    path = dataset / "features" / f"{victim}.msfeat"
    _blown_up(path, read_feature_file(path).shape[0], 4)
    report, ribbons = tmp_path / "report.tsv", tmp_path / "ribbons"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("eval", "--ckpt", request.getfixturevalue(model), "--data", dataset,
                   "--report", report, "--ribbon", ribbons)
    assert code == 4
    assert re.search(rf"error: video {victim}: non-finite logits at frame \d+",
                     capsys.readouterr().err)
    assert not report.exists() and not ribbons.exists()


def test_stream_non_finite_logits_exit_4_keeps_the_finite_frames(tmp_path, causal_trained, capsys):
    bad, head = tmp_path / "big.msfeat", tmp_path / "head.msfeat"
    features = _blown_up(bad, 30, 12)
    write_feature_file(head, features[:12])
    expected = tmp_path / "head.txt"
    assert run("predict", "--ckpt", causal_trained, "--features", head, "--out", expected) == 0
    capsys.readouterr()
    out = tmp_path / "s.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("stream", "--ckpt", causal_trained, "--features", bad, "--out", out)
    assert code == 4
    assert capsys.readouterr().err == "error: non-finite logits at frame 12\n"
    assert out.read_bytes() == expected.read_bytes()  # the 12 frames before it


def test_causal_commands_name_the_same_non_finite_frame(tmp_path, dataset, causal_trained, capsys):
    # a full pass's row 0 is not finite here; predict and eval bisect to the frame stream names
    bad = tmp_path / "big.msfeat"
    _blown_up(bad, 30, 12)
    victim = sorted((dataset / "splits" / "test.txt").read_text().split())[-1]
    path = dataset / "features" / f"{victim}.msfeat"
    _blown_up(path, read_feature_file(path).shape[0], 12)
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for command, *argv in (("predict", "--features", bad, "--out", tmp_path / "p.txt"),
                               ("stream", "--features", bad, "--out", tmp_path / "s.txt"),
                               ("eval", "--data", dataset, "--report", tmp_path / "r.tsv")):
            assert run(command, "--ckpt", causal_trained, *argv) == 4
            errors.append(capsys.readouterr().err)
    frame = "non-finite logits at frame 12\n"
    assert errors == [f"error: {frame}", f"error: {frame}", f"error: video {victim}: {frame}"]


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


def test_train_video_with_other_feature_dim_exit_5(tmp_path, dataset, config, capsys):
    # the second video: train reads input_dim from the first
    victim = (dataset / "splits" / "train.txt").read_text().split()[1]
    path = dataset / "features" / f"{victim}.msfeat"
    write_feature_file(path, np.zeros((read_feature_file(path).shape[0], 9), dtype=np.float32))
    assert run("train", "--config", config, "--out", tmp_path / "x.ckpt") == 5
    assert f"video {victim}: feature dim 9 != model input_dim 5" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


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


@pytest.mark.parametrize("command,missing", [
    ("train", "config"), ("train", "data_root"), ("train", "mapping"), ("train", "split"),
    ("train", "feature"), ("train", "label"), ("predict", "ckpt"), ("predict", "features"),
    ("stream", "features"),
])
def test_missing_input_exit_2_names_it(tmp_path, dataset, config, request, capsys, command, missing):
    vid = (dataset / "splits" / "train.txt").read_text().split()[0]
    path = {"config": tmp_path / "nope.cfg", "data_root": tmp_path / "nodata",
            "mapping": dataset / "mapping.txt", "split": dataset / "splits" / "train.txt",
            "feature": dataset / "features" / f"{vid}.msfeat",
            "label": dataset / "labels" / f"{vid}.txt",
            "ckpt": tmp_path / "nope.ckpt", "features": tmp_path / "nope.msfeat"}[missing]
    if command == "train":
        if missing == "config":
            config = path
        elif missing == "data_root":
            config = write_config(tmp_path / "nodata.cfg", path)
        argv = ["--config", config, "--out", tmp_path / "x.ckpt"]
    else:
        ckpt = path if missing == "ckpt" else \
            request.getfixturevalue("causal_trained" if command == "stream" else "trained")
        features = path if missing == "features" else dataset / "features" / f"{vid}.msfeat"
        argv = ["--ckpt", ckpt, "--features", features, "--out", tmp_path / "o.txt"]
    if path.exists():
        os.remove(path)
    capsys.readouterr()
    assert run(command, *argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(path) in err


@pytest.mark.parametrize("where", ["features", "split"])
def test_input_path_with_nul_byte_exit_2_names_it(tmp_path, dataset, trained, capsys, where):
    bad = "vid\x00eo"
    if where == "features":
        argv = ["predict", "--ckpt", trained, "--features", tmp_path / bad, "--out", tmp_path / "o.txt"]
        named = repr(str(tmp_path / bad))
    else:
        (dataset / "splits" / "test.txt").write_text(f"{bad}\n")
        argv = ["eval", "--ckpt", trained, "--data", dataset, "--report", tmp_path / "r.tsv"]
        named = repr(str(dataset / "features" / f"{bad}.msfeat"))
    capsys.readouterr()
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {named}: invalid path")


def test_train_short_video_exit_5_before_output(tmp_path, dataset, config, capsys):
    victim = (dataset / "splits" / "train.txt").read_text().split()[-1]
    write_feature_file(dataset / "features" / f"{victim}.msfeat", np.zeros((1, 5), dtype=np.float32))
    (dataset / "labels" / f"{victim}.txt").write_text("0\n")
    capsys.readouterr()
    assert run("train", "--config", config, "--out", tmp_path / "x.ckpt") == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: video {victim}: 1 frame; offline needs 2\n"
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("flag", ["--config", "--ckpt", "--features"])
def test_input_path_that_is_a_directory_exit_3(tmp_path, dataset, config, request, flag):
    feature_file = next((dataset / "features").iterdir())
    if flag == "--config":
        argv = ["train", "--config", tmp_path, "--out", tmp_path / "x.ckpt"]
    elif flag == "--ckpt":
        argv = ["predict", "--ckpt", tmp_path, "--features", feature_file, "--out", tmp_path / "o.txt"]
    else:
        argv = ["predict", "--ckpt", request.getfixturevalue("trained"), "--features", dataset,
                "--out", tmp_path / "o.txt"]
    assert run(*argv) == 3


@pytest.mark.parametrize("command", ["train", "eval", "predict", "stream"])
def test_output_into_missing_directory_exit_3_before_work(tmp_path, dataset, config, request, capsys,
                                                          command):
    out = tmp_path / "nodir" / "out"
    if command == "train":
        argv = ["--config", config, "--out", out]
    else:
        ckpt = request.getfixturevalue("causal_trained" if command == "stream" else "trained")
        features = next((dataset / "features").iterdir())
        argv = {"eval": ["--ckpt", ckpt, "--data", dataset, "--report", out,
                         "--ribbon", tmp_path / "rib"],
                "predict": ["--ckpt", ckpt, "--features", features, "--out", out],
                "stream": ["--ckpt", ckpt, "--features", features, "--out", out]}[command]
    capsys.readouterr()
    assert run(command, *argv) == 3
    stdout, err = capsys.readouterr()
    assert stdout == ""  # no resolved config: nothing was loaded, trained or predicted
    assert str(tmp_path / "nodir") in err
    assert not (tmp_path / "rib").exists()


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
        offset, value = {"feature_maps_100000": (fields_at + 4, struct.pack("<I", 100000)),
                         "kernels0_is_4": (16, struct.pack("<I", 4)),
                         "causal_flag_7": (fields_at + 20, struct.pack("<I", 7)),
                         "alpha_base_inf": (fields_at + 28, struct.pack("<f", math.inf))}[case]
        blob[offset:offset + 4] = value
    return bytes(blob)


@pytest.mark.parametrize("case", ["non_utf8_name", "dims_product_wraps_to_zero",
                                  "feature_maps_100000", "kernels0_is_4", "causal_flag_7",
                                  "alpha_base_inf"])
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


@pytest.mark.parametrize("section", ["parameters", "moments"])
def test_checkpoint_entry_count_mismatch_exit_3(tmp_path, dataset, capsys, section):
    model = build_model(ModelConfig(input_dim=5, num_classes=3, kernels=(3, 5), layers_per_stage=2,
                                    feature_maps=8), seed=0)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, AdamState.init(model), ckpt)
    blob = bytearray(ckpt.read_bytes())
    entries = list(_entries(blob))
    if section == "parameters":  # the u32 count just before the first parameter entry
        at = entries[0][0] - 4
        message = f"checkpoint has 7 parameters at offset {at}, config implies {len(entries)}"
    else:  # the u32 count of Adam m, just after the last parameter entry
        pos, name, dims = entries[-1]
        at = pos + 3 + len(name) + 4 * len(dims) + 4 * math.prod(dims)
        message = f"moment section at offset {at} has 7 entries, expected {len(entries)}"
    assert struct.unpack_from("<I", blob, at) == (len(entries),)
    blob[at:at + 4] = struct.pack("<I", 7)
    ckpt.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == f"{ckpt}: {message}"
    capsys.readouterr()
    assert run("eval", "--ckpt", ckpt, "--data", dataset, "--report", tmp_path / "r.tsv") == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == f"error: {ckpt}: {message}\n"
    assert not (tmp_path / "r.tsv").exists()


def test_corrupt_checkpoint_exit_3(tmp_path, dataset, trained):
    bad = tmp_path / "bad.ckpt"
    blob = bytearray(trained.read_bytes())
    blob[0] ^= 0xFF
    bad.write_bytes(bytes(blob))
    feature_file = next((dataset / "features").iterdir())
    assert run("predict", "--ckpt", bad, "--features", feature_file,
               "--out", tmp_path / "o.txt") == 3
