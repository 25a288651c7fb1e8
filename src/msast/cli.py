"""Command-line entry point: synth | train | eval | predict | stream.

Run configs are flat key=value text files; CLI flags override file values
and every command echoes its fully resolved configuration before doing any
work. Exit codes are a stable contract:

    0 success          2 usage/config     3 I/O failure
    4 numeric failure  5 incompatibility  6 mode violation
"""

import argparse
import os
import sys
import time

import numpy as np

from . import data as dio
from . import metrics as mx
from .errors import ConfigError, DataError, FileFormatError, ModeError, NumericError, ShapeError
from .model import ModelConfig, StreamState, build_model, forward_stream, labels_from_logits, predict
from .training import AdamState, TrainConfig, load_checkpoint, save_checkpoint, train

MODEL_KEYS = ("kernels", "layers_per_stage", "feature_maps", "num_classes", "input_dim",
              "num_decoders", "causal", "dropout", "alpha_base")
TRAIN_KEYS = ("epochs", "learning_rate", "smooth_tau", "smooth_lambda", "seed")
OTHER_KEYS = ("data_root", "split")
ALL_KEYS = MODEL_KEYS + TRAIN_KEYS + OTHER_KEYS


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "kernels":
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"kernels must be a comma list of ints, got {raw!r}") from None
    if key == "causal":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"causal must be a boolean, got {raw!r}")
    if key in ("layers_per_stage", "feature_maps", "num_classes", "input_dim",
               "num_decoders", "epochs", "seed"):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if key in ("dropout", "alpha_base", "learning_rate", "smooth_tau", "smooth_lambda"):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    return raw


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
        if key not in ALL_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r} on line {lineno}")
        values[key] = _parse_value(key, raw)
    return values


def _apply_overrides(values: dict, sets: list[str]):
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in ALL_KEYS:
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


def _require_file(path, what: str):
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")


def cmd_synth(args) -> int:
    cfg = dio.SynthConfig(
        num_classes=args.classes, num_videos=args.videos, t_min=args.tmin, t_max=args.tmax,
        feature_dim=args.dim, noise_sigma=args.sigma, self_transition_prob=args.stay,
        skip_prob=args.skip, seed=args.seed,
    )
    cfg.validate()
    _echo("synth config", {
        "out": args.out, "videos": cfg.num_videos, "classes": cfg.num_classes,
        "dim": cfg.feature_dim, "t_min": cfg.t_min, "t_max": cfg.t_max,
        "noise_sigma": cfg.noise_sigma, "self_transition_prob": cfg.self_transition_prob,
        "skip_prob": cfg.skip_prob, "seed": cfg.seed,
    })
    train_set, test_set, mapping = dio.generate_synthetic(cfg)
    manifest = dio.write_dataset(args.out, train_set, test_set, mapping)
    frames = sum(len(s.labels) for s in [*train_set, *test_set])
    print(f"wrote {len(train_set)} train + {len(test_set)} test videos "
          f"({frames} frames, {len(mapping)} classes, dim {cfg.feature_dim}) to {manifest.root}")
    return 0


def _resolve_train_config(args) -> dict:
    _require_file(args.config, "config file")
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
    values = _resolve_train_config(args)
    _require_file(values["data_root"], "data_root")
    _require_file(os.path.join(values["data_root"], "mapping.txt"), "mapping file")
    _require_file(os.path.join(values["data_root"], "splits", "train.txt"), "train split")
    manifest = dio.load_manifest(values["data_root"])
    train_set = dio.load_split(manifest, "train")
    if not train_set:
        raise DataError("train split is empty")
    values.setdefault("num_classes", manifest.num_classes)
    values.setdefault("input_dim", int(train_set[0].features.shape[1]))
    model_cfg = ModelConfig(**{k: values[k] for k in MODEL_KEYS if k in values})
    train_cfg = TrainConfig(**{k: values[k] for k in TRAIN_KEYS if k in values})
    resolved = {k: values.get(k) for k in values}
    resolved.update({k: getattr(model_cfg, k) for k in MODEL_KEYS})
    resolved.update({"epochs": train_cfg.epochs, "learning_rate": train_cfg.learning_rate,
                     "smooth_tau": train_cfg.smooth_tau, "smooth_lambda": train_cfg.smooth_lambda,
                     "seed": train_cfg.seed, "out": args.out})
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


def _load_model_checked(ckpt_path):
    _require_file(ckpt_path, "checkpoint")
    model, state = load_checkpoint(ckpt_path)
    return model, state


def cmd_eval(args) -> int:
    model, _ = _load_model_checked(args.ckpt)
    _require_file(args.data, "data directory")
    _require_file(os.path.join(args.data, "mapping.txt"), "mapping file")
    _require_file(os.path.join(args.data, "splits", f"{args.split}.txt"), f"{args.split} split")
    manifest = dio.load_manifest(args.data)
    if manifest.num_classes != model.cfg.num_classes:
        raise ShapeError(f"class count mismatch: checkpoint expects {model.cfg.num_classes}, "
                         f"dataset has {manifest.num_classes}")
    if args.ribbon and manifest.num_classes > len(mx.RIBBON_PALETTE):
        raise ConfigError(f"--ribbon colors at most {len(mx.RIBBON_PALETTE)} classes, "
                          f"dataset has {manifest.num_classes}")
    _echo("eval config", {"ckpt": args.ckpt, "data": args.data, "split": args.split,
                          "report": args.report, "ribbon": args.ribbon, "oracle": args.oracle})
    video_ids = sorted(manifest.split_ids(args.split))
    if not video_ids:
        raise DataError(f"split {args.split!r} lists no videos")
    reports = []
    if args.ribbon:
        os.makedirs(args.ribbon, exist_ok=True)
    for vid in video_ids:
        sample = dio.load_video(manifest, vid)
        if sample.features.shape[1] != model.cfg.input_dim:
            raise ShapeError(f"feature dim mismatch for {vid}: checkpoint expects "
                             f"{model.cfg.input_dim}, found {sample.features.shape[1]}")
        pred = sample.labels.copy() if args.oracle else predict(model, sample.features)
        reports.append(mx.evaluate_video(pred, sample.labels, manifest.num_classes, video_id=vid))
        if args.ribbon:
            mx.emit_ribbon([("pred", pred), ("gt", sample.labels)],
                           os.path.join(args.ribbon, f"{vid}.ppm"))
    overall = mx.aggregate(reports, mode="overall")
    per_video = mx.aggregate(reports, mode="per_video")
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


def _read_video(path, model) -> np.ndarray:
    """One video's features, checked against the model before any output is written."""
    features = dio.read_feature_file(path)
    if features.shape[1] != model.cfg.input_dim:
        raise ShapeError(f"feature dim mismatch: checkpoint expects {model.cfg.input_dim}, "
                         f"found {features.shape[1]}")
    if features.shape[0] == 0:
        raise ShapeError(f"{path}: feature file holds no frames")
    return features


def cmd_predict(args) -> int:
    model, _ = _load_model_checked(args.ckpt)
    _require_file(args.features, "feature file")
    _echo("predict config", {"ckpt": args.ckpt, "features": args.features, "out": args.out})
    features = _read_video(args.features, model)
    labels = predict(model, features)
    with open(args.out, "w", encoding="utf-8") as fh:
        for value in labels:
            fh.write(f"{int(value)}\n")
    print(f"wrote {len(labels)} predictions to {args.out}")
    return 0


def cmd_stream(args) -> int:
    model, _ = _load_model_checked(args.ckpt)
    if not model.cfg.causal:
        raise ModeError("streaming requires a causal model")
    _require_file(args.features, "feature file")
    _echo("stream config", {"ckpt": args.ckpt, "features": args.features, "out": args.out})
    features = _read_video(args.features, model)
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
    p.add_argument("--videos", type=int, default=50)
    p.add_argument("--classes", type=int, default=7)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tmin", type=int, default=200)
    p.add_argument("--tmax", type=int, default=400)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--stay", type=float, default=0.97, help="self-transition probability")
    p.add_argument("--skip", type=float, default=0.1, help="phase-skip probability on advance")
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
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
