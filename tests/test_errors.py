"""Error branches that no other in-process test reaches: each call must
raise its error class with its message."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from msast import numerics as nx
from msast.attention import WindowSpec, sliding_window_attention
from msast.data import DatasetManifest, SynthConfig, write_feature_file
from msast.errors import ConfigError, DataError, ShapeError
from msast.metrics import emit_ribbon
from msast.model import (ModelConfig, StreamState, build_model, check_input, forward_full,
                         forward_stream)
from msast.training import TrainConfig, cross_entropy_loss

SMALL = ModelConfig(input_dim=4, num_classes=3, kernels=(3,), layers_per_stage=1, feature_maps=4,
                    num_decoders=1)


def zeros(*shape):
    return nx.as_tensor(np.zeros(shape))


CASES = {
    "synth-classes": (lambda: SynthConfig(num_classes=1).validate(), ConfigError,
                      "num_classes must be >= 2, got 1"),
    "synth-t-max": (lambda: SynthConfig(t_min=50, t_max=40).validate(), ConfigError,
                    "t_max 40 < t_min 50"),
    "synth-feature-dim": (lambda: SynthConfig(feature_dim=1).validate(), ConfigError,
                          "feature_dim must be >= 2, got 1"),
    "synth-skip": (lambda: SynthConfig(skip_prob=1.5).validate(), ConfigError,
                   "skip_prob must be in [0, 1], got 1.5"),
    "model-no-kernels": (lambda: replace(SMALL, kernels=()).validate(), ConfigError,
                         "kernels must be nonempty"),
    "model-small-kernel": (lambda: replace(SMALL, kernels=(3, 1)).validate(), ConfigError,
                           "kernels must all be >= 3, got (3, 1)"),
    "model-feature-maps": (lambda: replace(SMALL, feature_maps=0).validate(), ConfigError,
                           "feature_maps must be >= 1, got 0"),
    "train-epochs": (lambda: TrainConfig(epochs=0).validate(), ConfigError,
                     "epochs must be >= 1, got 0"),
    "train-learning-rate": (lambda: TrainConfig(learning_rate=-1.0).validate(), ConfigError,
                            "learning_rate must be >= 0, got -1.0"),
    "train-smooth-lambda": (lambda: TrainConfig(smooth_lambda=-0.5).validate(), ConfigError,
                            "smooth_lambda must be >= 0, got -0.5"),
    "add": (lambda: nx.add(zeros(2, 3), zeros(4, 5)), ShapeError,
            "add shapes incompatible: (2, 3) + (4, 5)"),
    "mul": (lambda: nx.mul(zeros(2, 3), zeros(4, 5)), ShapeError,
            "mul shapes incompatible: (2, 3) * (4, 5)"),
    "conv": (lambda: nx.dilated_conv1d(zeros(5, 2), zeros(3, 4, 6), zeros(6), 1, False),
             ShapeError, "conv shapes incompatible: x (5, 2), w (3, 4, 6)"),
    "concat": (lambda: nx.concat_channels(zeros(2, 3), zeros(4, 3)), ShapeError,
               "concat row mismatch: (2, 3) vs (4, 3)"),
    "attention-queries": (lambda: sliding_window_attention(zeros(6, 2), zeros(5, 2), zeros(5, 2),
                                                           WindowSpec(3, False), zeros(), 1.0),
                          ShapeError, "attention needs n x C queries against T >= n keys, "
                                      "got q (6, 2), k (5, 2)"),
    "loss-labels": (lambda: cross_entropy_loss(zeros(3, 2), np.zeros(4, dtype=int)), ShapeError,
                    "labels shape (4,) does not match logits rows 3"),
    "forward-mode": (lambda: forward_full(build_model(SMALL, 0), np.zeros((5, 4)), mode="eval"),
                     ConfigError, "mode must be 'train' or 'infer', got 'eval'"),
    "stream-frame": (lambda: forward_stream(build_model(replace(SMALL, causal=True), 0),
                                            np.zeros(5), StreamState()), ShapeError,
                     "stream frame shape (1, 5), expected (1, 4)"),
    "check-input": (lambda: check_input(SMALL, np.zeros(5)), ShapeError,
                    "features: features shape (5,) is not (T, 4)"),
    "item": (lambda: zeros(2).item(), ShapeError,
             "item() needs a single-element tensor, got shape (2,)"),
    "backward": (lambda: zeros(2).backward(), ShapeError,
                 "backward() needs a scalar, got shape (2,)"),
    "ribbon-none": (lambda: emit_ribbon([], os.devnull), DataError,
                    "emit_ribbon needs at least one sequence"),
    "ribbon-empty": (lambda: emit_ribbon([("gt", np.zeros(0, dtype=int))], os.devnull), DataError,
                     "ribbon sequences are empty"),
    "split": (lambda: DatasetManifest(".", {0: "a", 1: "b"}).split_path("val"), ConfigError,
              "unknown split 'val', expected 'train' or 'test'"),
    "feature-file": (lambda: write_feature_file(os.devnull, np.zeros(5)), DataError,
                     "features must be 2-D (T, D), got shape (5,)"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_error_branch_raises_its_class_and_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
