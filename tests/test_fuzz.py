"""Property tests for the two binary readers (checkpoints and .msfeat files).

A truncated, spliced or byte-flipped copy of a valid file either reads back
as a valid object or raises FileFormatError / DataError; any other exception
fails. A file that does read must write back to the same bytes, so "valid"
means the reader accepted exactly what the writer would produce.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msast.data import read_feature_file, write_feature_file
from msast.errors import DataError, FileFormatError
from msast.model import ModelConfig, build_model
from msast.training import AdamState, load_checkpoint, save_checkpoint

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
