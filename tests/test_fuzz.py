"""Property tests for the two binary readers (checkpoints and .msfeat files)
and for the command line as a whole.

A truncated, spliced or byte-flipped copy of a valid file either reads back
as a valid object or raises FileFormatError / DataError; any other exception
fails. A file that does read must write back to the same bytes, so "valid"
means the reader accepted exactly what the writer would produce.

`msast.cli.main`, given one drawn input on a tiny synth tree, returns a
documented exit code; an input a check rejects (exit 2, 5 or 6) prints
nothing to stdout, and labels come only from finite logits.
"""

import contextlib
import io
import shutil
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msast import model as model_module
from msast.cli import KEY_TYPES
from msast.data import read_feature_file, write_feature_file
from msast.errors import DataError, FileFormatError
from msast.model import ModelConfig, build_model
from msast.training import AdamState, load_checkpoint, save_checkpoint
from tests.test_cli import run, write_config

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    n = len(blob)
    kind = draw(st.sampled_from(["truncate", "splice", "flip"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, n - 1))]
    if kind == "flip":
        pos = draw(st.integers(0, n - 1))
        out = bytearray(blob)
        out[pos] ^= draw(st.integers(1, 255))
        return bytes(out)
    start = draw(st.integers(0, n))
    end = draw(st.integers(start, min(n, start + 16)))
    return blob[:start] + draw(st.binary(max_size=16)) + blob[end:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_blob(workdir):
    cfg = ModelConfig(input_dim=2, num_classes=2, kernels=(3, 4), layers_per_stage=1,
                      feature_maps=2, num_decoders=1, causal=True)
    model = build_model(cfg, seed=1)
    state = AdamState.init(model)
    state.step = 3
    path = workdir / "valid.ckpt"
    save_checkpoint(model, state, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def feature_blob(workdir):
    path = workdir / "valid.msfeat"
    write_feature_file(path, np.random.default_rng(2).normal(size=(6, 3)).astype(np.float32))
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises(workdir, checkpoint_blob, data):
    blob = data.draw(mutations(checkpoint_blob))
    path, again = workdir / "mutated.ckpt", workdir / "again.ckpt"
    path.write_bytes(blob)
    try:
        model, state = load_checkpoint(path)
    except (FileFormatError, DataError):
        return
    save_checkpoint(model, state, again)
    assert again.read_bytes() == blob


@FUZZ
@given(data=st.data())
def test_mutated_feature_file_reads_or_raises(workdir, feature_blob, data):
    blob = data.draw(mutations(feature_blob))
    path, again = workdir / "mutated.msfeat", workdir / "again.msfeat"
    path.write_bytes(blob)
    try:
        features = read_feature_file(path)
    except (FileFormatError, DataError):
        return
    assert features.dtype == np.float32 and features.ndim == 2
    write_feature_file(again, features)
    assert again.read_bytes() == blob


# --- the command line ---------------------------------------------------------------

DIM = 4  # the synth tree's feature dim
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}
CHECK_EXITS = {2, 5, 6}  # an input rejected by a check, before any output


class Case(NamedTuple):
    """One CLI run: `command` with the input `target` replaced by `payload`
    (bytes for a text file, a float32 array for a feature file, a str for a
    `--set` item), on the checkpoint `ckpt` ("causal" makes `train` causal)."""
    command: str
    target: str
    payload: object
    ckpt: str = "offline"
    ribbon: bool = False


# edge values for any key, each cheap to train with where it is valid
SET_VALUES = ("0", "-1", "1", "3", "nan", "-inf", "1e-45", "3.4e38", "true", "3,3", "3,5,17", "")
TEXT_TARGETS = {"labels": ("train", "eval"), "mapping": ("train", "eval"),
                "split": ("train", "eval"), "config": ("train",)}


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    """A pristine synth tree and run config under the returned root, and three
    checkpoints: trained offline and causal, and an untrained 45-layer causal
    model whose conv reach is billions of frames."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--out", data, "--videos", 4, "--classes", 3, "--dim", DIM,
               "--tmin", 10, "--tmax", 14, "--seed", 3) == 0
    config = write_config(root / "run.cfg", data, kernels="3,5", layers_per_stage=2, feature_maps=8,
                          epochs=1)
    ckpts = {"offline": root / "offline.ckpt", "causal": root / "causal.ckpt",
             "deep": root / "deep.ckpt"}
    assert run("train", "--config", config, "--out", ckpts["offline"]) == 0
    assert run("train", "--config", config, "--causal", "--out", ckpts["causal"]) == 0
    deep = build_model(ModelConfig(input_dim=DIM, num_classes=3, kernels=(3, 4), layers_per_stage=45,
                                   feature_maps=1, num_decoders=1, causal=True), seed=0)
    save_checkpoint(deep, AdamState.init(deep), ckpts["deep"])
    return root, ckpts


def _input_path(data, config, command: str, target: str):
    """The text input `target` that `command` reads, and the video it reads first."""
    split = "train" if command == "train" else "test"
    video = (data / "splits" / f"{split}.txt").read_text().split()[0]
    return {"labels": data / "labels" / f"{video}.txt", "mapping": data / "mapping.txt",
            "split": data / "splits" / f"{split}.txt", "config": config}[target], video


@pytest.fixture(scope="module")
def originals(cli_tree) -> dict:
    """The bytes of each (command, text input) pair, and the frame count of
    the video each command reads first."""
    root, _ = cli_tree
    out = {}
    for target, commands in TEXT_TARGETS.items():
        for command in commands:
            path, video = _input_path(root / "data", root / "run.cfg", command, target)
            out[(command, target)] = path.read_bytes()
            out[("frames", command)] = read_feature_file(
                root / "data" / "features" / f"{video}.msfeat").shape[0]
    return out


@st.composite
def cli_cases(draw, originals: dict) -> Case:
    target = draw(st.sampled_from([*TEXT_TARGETS, "set", "features"]))
    if target in TEXT_TARGETS:
        command = draw(st.sampled_from(TEXT_TARGETS[target]))
        blob = originals[(command, target)]
        payload = draw(st.one_of(mutations(blob), st.binary(max_size=64)))
    elif target == "set":
        command = "train"
        value = draw(st.one_of(st.sampled_from(SET_VALUES), st.binary(max_size=12).map(
            lambda raw: raw.decode("utf-8", "surrogateescape"))))  # as argv decodes bytes
        key = draw(st.sampled_from([*sorted(KEY_TYPES), None]))
        payload = value if key is None else f"{key}={value}"
    else:
        command = draw(st.sampled_from(["train", "eval", "predict", "stream"]))
        frames = originals[("frames", command)] if command in ("train", "eval") \
            else draw(st.integers(0, 16))
        payload = draw(arrays(np.float32, (frames, DIM),
                              elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    ckpt = draw(st.sampled_from(["offline", "causal"] if command == "train"
                                else ["offline", "causal", "deep"]))
    return Case(command, target, payload, ckpt, command == "eval" and draw(st.booleans()))


def _argv(case: Case, work, ckpts) -> list:
    data, config = work / "data", work / "run.cfg"
    if case.target in TEXT_TARGETS:
        _input_path(data, config, case.command, case.target)[0].write_bytes(case.payload)
    features = work / "drawn.msfeat"
    if case.target == "features":
        if case.command in ("train", "eval"):
            video = _input_path(data, config, case.command, "labels")[1]
            features = data / "features" / f"{video}.msfeat"
        write_feature_file(features, case.payload)
    if case.command == "train":
        return ["train", "--config", config, "--out", work / "x.ckpt",
                *(["--causal"] if case.ckpt == "causal" else []),
                *(["--set", case.payload] if case.target == "set" else [])]
    if case.command == "eval":
        return ["eval", "--ckpt", ckpts[case.ckpt], "--data", data, "--report", work / "r.tsv",
                *(["--ribbon", work / "ribbons"] if case.ribbon else [])]
    return [case.command, "--ckpt", ckpts[case.ckpt], "--features", features, "--out", work / "o.txt"]


def _run_case(cli_tree, case: Case) -> int:
    """Run `case` on a fresh copy of the tree and check the property; the exit code."""
    root, ckpts = cli_tree
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root / "data", work / "data")
    (work / "run.cfg").write_text((root / "run.cfg").read_text()
                                  .replace(str(root / "data"), str(work / "data")))
    argv = _argv(case, work, ckpts)
    finite = []
    labels_from_logits = model_module.labels_from_logits

    def spy(logits, *args, **kwargs):
        finite.append(bool(np.isfinite(logits).all()))
        return labels_from_logits(logits, *args, **kwargs)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(model_module, "labels_from_logits", spy)
        try:
            code = run(*argv)
        except SystemExit as exc:  # argparse
            assert exc.code == 2
            code = 2
    assert code in EXIT_CODES
    if code in CHECK_EXITS:
        assert out.getvalue() == ""
    if code == 0 and case.command in ("predict", "eval"):
        assert finite and all(finite)
    return code


_BIG = np.random.default_rng(0).choice([-5.3e37, 5.3e37], size=(30, DIM)).astype(np.float32)

# inputs that once crashed, hung or exited 0 with meaningless output, and the code each gives now
SEEDS = {
    "label_outside_int64": (Case("train", "labels", b"99999999999999999999999\n"), 2),
    "nul_byte_path": (Case("eval", "split", b"vid\x00eo\n"), 2),
    "deep_causal_stream": (Case("stream", "features", np.ones((20, DIM), np.float32), "deep"), 0),
    "feature_maps_99999999": (Case("train", "set", "feature_maps=99999999"), 2),
    # float32 rounds these to inf and to 1.0, which the checkpoint would hold
    "alpha_base_1e39": (Case("train", "set", "alpha_base=1e39"), 2),
    "dropout_0.99999999": (Case("train", "set", "dropout=0.99999999"), 2),
    "big_features_predict": (Case("predict", "features", _BIG), 4),
    "big_features_stream": (Case("stream", "features", _BIG, "causal"), 4),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_seed_case(cli_tree, seed):
    case, code = SEEDS[seed]
    assert _run_case(cli_tree, case) == code


@FUZZ
@given(data=st.data())
def test_cli_exits_with_a_documented_code(cli_tree, originals, data):
    _run_case(cli_tree, data.draw(cli_cases(originals)))
