"""Command-line entry point: synth | train | eval | predict | stream.

Run configs are flat key=value text files; CLI flags override file values
and every command echoes its fully resolved configuration before doing any
work. Exit codes are a stable contract, kept in `EXIT_CODES`.
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import data as dio
from . import metrics as mx
from .errors import (ConfigError, DataError, FileFormatError, ModeError, NumericError, ResourceError,
                     ShapeError)
from .model import (ModelConfig, StreamState, build_model, check_input, forward_stream,
                    labels_from_logits, predict)
from .training import AdamState, TrainConfig, load_checkpoint, save_checkpoint, train

MODEL_KEYS = tuple(field.name for field in dataclasses.fields(ModelConfig))
TRAIN_KEYS = ("epochs", "learning_rate", "smooth_tau", "smooth_lambda", "seed")
_HINTS = ModelConfig.__annotations__ | TrainConfig.__annotations__
KEY_TYPES = {key: _HINTS[key] for key in MODEL_KEYS + TRAIN_KEYS} | {"data_root": str}

# synth flag -> the SynthConfig field it sets; each flag defaults to its field's default
SYNTH_FLAGS = {"videos": "num_videos", "classes": "num_classes", "dim": "feature_dim",
               "seed": "seed", "tmin": "t_min", "tmax": "t_max", "sigma": "noise_sigma",
               "stay": "self_transition_prob", "skip": "skip_prob"}

# exception class -> exit code; 0 is success
EXIT_CODES = ((ConfigError, 2), (DataError, 2), (FileFormatError, 3), (OSError, 3),
              (NumericError, 4), (ShapeError, 5), (ModeError, 6), (ResourceError, 7))

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# value type -> (parser, what a value that fails to parse should have been)
_PARSERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda raw: _BOOLS[raw.lower()], "a boolean"),
    tuple[int, ...]: (lambda raw: tuple(map(int, raw.split(","))), "a comma list of ints"),
    str: (str, None),
}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    parse, expected = _PARSERS[KEY_TYPES[key]]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key} must be {expected}, got {raw!r}") from None


def read_run_config(path) -> dict:
    """Flat key=value file; unknown keys are rejected."""
    values = {}
    for lineno, line in dio.read_text_lines(path, ConfigError):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno} is not key=value: {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"{path}: unknown config key {key!r} on line {lineno}")
        values[key] = _parse_value(key, raw)
    return values


def _apply_overrides(values: dict, sets: list[str]):
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigError(f"--set: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)


def _echo(title: str, values: dict):
    print(f"resolved {title}:")
    for key in sorted(values):
        value = values[key]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        print(f"  {key} = {value}")
    sys.stdout.flush()


def _require_output_dir(path):
    """Refuse an output path whose directory does not exist, before any work."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise OSError(f"{directory}: output directory not found")


def cmd_synth(args) -> int:
    cfg = dio.SynthConfig(**{name: getattr(args, name) for name in SYNTH_FLAGS.values()})
    cfg.validate()
    _echo("synth config", dataclasses.asdict(cfg) | {"out": args.out})
    train_set, test_set, mapping = dio.generate_synthetic(cfg)
    manifest = dio.write_dataset(args.out, train_set, test_set, mapping)
    frames = sum(len(s.labels) for s in [*train_set, *test_set])
    print(f"wrote {len(train_set)} train + {len(test_set)} test videos "
          f"({frames} frames, {len(mapping)} classes, dim {cfg.feature_dim}) to {manifest.root}")
    return 0


def _resolve_train_config(args) -> dict:
    values = read_run_config(args.config)
    _apply_overrides(values, args.set)
    explicit_decoders = "num_decoders" in values
    if args.causal:
        values["causal"] = True
    values.setdefault("causal", False)
    if not explicit_decoders:
        values["num_decoders"] = 1 if values["causal"] else 3
    if "data_root" not in values:
        raise ConfigError("config must set data_root")
    return values


def cmd_train(args) -> int:
    _require_output_dir(args.out)
    values = _resolve_train_config(args)
    manifest = dio.load_manifest(values["data_root"])
    train_set = dio.load_split(manifest, "train")
    values.setdefault("num_classes", manifest.num_classes)
    values.setdefault("input_dim", int(train_set[0].features.shape[1]))
    model_cfg = ModelConfig(**{k: values[k] for k in MODEL_KEYS if k in values})
    train_cfg = TrainConfig(**{k: values[k] for k in TRAIN_KEYS if k in values})
    model_cfg.validate()
    train_cfg.validate()
    for sample in train_set:
        check_input(model_cfg, sample.features, sample.labels, what=f"video {sample.id}")
    resolved = dict(values, out=args.out)
    resolved.update((k, getattr(model_cfg, k)) for k in MODEL_KEYS)
    resolved.update((k, getattr(train_cfg, k)) for k in TRAIN_KEYS)
    _echo("train config", resolved)
    model = build_model(model_cfg, seed=train_cfg.seed)
    adam_state = AdamState.init(model)
    history = train(model, train_set, train_cfg, adam_state)
    save_checkpoint(model, adam_state, args.out)
    history_path = f"{args.out}.history.txt"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write(history.to_text())
    last = history.epochs[-1]
    print(f"trained {train_cfg.epochs} epochs on {len(train_set)} videos; "
          f"final loss {last.loss:.6f}, train acc {last.accuracy:.2f}%")
    print(f"checkpoint: {args.out}")
    print(f"history: {history_path}")
    return 0


def cmd_eval(args) -> int:
    _require_output_dir(args.report)
    model = load_checkpoint(args.ckpt)[0]
    manifest = dio.load_manifest(args.data)
    if manifest.num_classes != model.cfg.num_classes:
        raise ShapeError(f"class count mismatch: checkpoint expects {model.cfg.num_classes}, "
                         f"dataset has {manifest.num_classes}")
    samples = sorted(dio.load_split(manifest, args.split), key=lambda sample: sample.id)
    for sample in samples:
        check_input(model.cfg, sample.features, what=f"video {sample.id}")
    _echo("eval config", {"ckpt": args.ckpt, "data": args.data, "split": args.split,
                          "report": args.report, "ribbon": args.ribbon, "oracle": args.oracle})
    reports = []
    if args.ribbon:
        os.makedirs(args.ribbon, exist_ok=True)
    for sample in samples:
        pred = sample.labels.copy() if args.oracle else predict(model, sample.features)
        reports.append(mx.evaluate_video(pred, sample.labels, manifest.num_classes,
                                         video_id=sample.id))
        if args.ribbon:
            mx.emit_ribbon([("pred", pred), ("gt", sample.labels)],
                           os.path.join(args.ribbon, f"{sample.id}.ppm"))
    overall = mx.aggregate(reports)
    per_video = mx.per_video_summary(reports)
    lines = mx.report_lines(overall)
    lines.extend(f"{key}\t{value:.4f}" for key, value in sorted(per_video.items()))
    for report in reports:
        lines.extend(mx.report_lines(report, prefix=f"video.{report.video_id}."))
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"evaluated {len(reports)} videos; overall accuracy {overall.accuracy:.2f}%, "
          f"edit {overall.edit:.2f}, f1_avg {overall.f1_avg:.2f}")
    print(f"report: {args.report}")
    return 0


def cmd_predict(args) -> int:
    _require_output_dir(args.out)
    model = load_checkpoint(args.ckpt)[0]
    features = dio.read_feature_file(args.features)
    check_input(model.cfg, features, what=args.features)
    _echo("predict config", {"ckpt": args.ckpt, "features": args.features, "out": args.out})
    labels = predict(model, features)
    dio.write_labels(args.out, labels)
    print(f"wrote {len(labels)} predictions to {args.out}")
    return 0


def cmd_stream(args) -> int:
    _require_output_dir(args.out)
    model = load_checkpoint(args.ckpt)[0]
    if not model.cfg.causal:
        raise ModeError("streaming requires a causal model")
    features = dio.read_feature_file(args.features)
    check_input(model.cfg, features, what=args.features)
    _echo("stream config", {"ckpt": args.ckpt, "features": args.features, "out": args.out})
    state = StreamState()
    seconds = []
    with open(args.out, "w", encoding="utf-8") as fh:
        for t in range(features.shape[0]):
            start = time.perf_counter()
            logits = forward_stream(model, features[t:t + 1], state)
            seconds.append(time.perf_counter() - start)
            fh.write(f"{int(labels_from_logits(logits)[0])}\n")
            fh.flush()  # one prediction per frame, as it arrives
    print(f"streamed {features.shape[0]} frames to {args.out}")
    p50, p99 = 1e3 * np.percentile(seconds, [50, 99])
    print(f"forward_stream per frame: p50 {p50:.2f} ms, p99 {p99:.2f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msast",
        description="Multi-scale temporal action segmentation: synthesize data, train, evaluate, stream.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic phase dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    fields = {field.name: field for field in dataclasses.fields(dio.SynthConfig)}
    for flag, name in SYNTH_FLAGS.items():
        p.add_argument(f"--{flag}", dest=name, type=fields[name].type,
                       default=fields[name].default, help="default %(default)s")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train an offline (default) or causal model")
    p.add_argument("--config", required=True, help="flat key=value run config")
    p.add_argument("--causal", action="store_true",
                   help="train the causal/online variant (default: 1 decoder)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--report", required=True)
    p.add_argument("--ribbon", default=None, help="directory for per-video ribbon PPMs")
    p.add_argument("--oracle", action="store_true",
                   help="score ground truth against itself (sanity mode)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict labels for one feature file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stream", help="frame-by-frame online prediction (causal checkpoints)")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stream)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
