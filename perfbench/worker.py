"""One benchmark process: set up a workload, then time it or trace it.

run.py starts this file in a fresh process for every set-up it measures.
On standard output it prints the line READY once set-up is done, then one
JSON line with the result; progress and errors go to standard error.

Inputs come only from msast.data.generate_synthetic, seeded from --seed.
Video lengths are fixed per workload, so the cost of a run does not depend
on the seed. The requests of a timed phase are fixed too: --seconds sets
how many short requests follow one request per video, through a nominal
rate measured on a 2-vCPU x86 machine, so a phase lasts about --seconds
there. A time-bound loop would instead change the mix of short and long
requests with the speed of the code under test.

Every call into msast goes through a module attribute (`model.predict`,
not a name imported from it), so that the traced run's wrappers see it.
"""

import argparse
import ctypes
import gc
import itertools
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import msast
from msast import data, metrics, model, numerics, training

import tracing

READY = "READY"

SCALES = {
    # default model of the paper; the criterion-9 synthetic distribution
    "full": dict(
        model=dict(input_dim=64, num_classes=7, kernels=(3, 5, 17), layers_per_stage=10,
                   feature_maps=64),
        synth=dict(num_classes=7, feature_dim=64, noise_sigma=3.0),
        offline=[(300, 300)] * 8 + [(1000, 1000), (2000, 2000), (6000, 6000)],
        # one video per 25-frame stratum of T 200-400, at its middle, so that the
        # median step does not move with the lengths a seed would draw
        train=[(212 + 25 * i, 212 + 25 * i) for i in range(8)] + [(2000, 2000)],
        # equal lengths: the frames with the longest prefixes then come from
        # every video, spread over the run, not from one short stretch of it
        stream=[(200, 200)] * 5,
        # short requests per second of --seconds at the nominal rate
        offline_short_per_s=1.0,
        train_short_per_s=0.27,  # 8 more: every short length twice
        stream_frames_per_s=33.0,
        stream_min_frames=1000,  # so that p99 has ten samples beyond it
        stream_warm_up_frames=32,
    ),
    # tiny model and short videos, for the smoke test of the benchmark itself
    "smoke": dict(
        model=dict(input_dim=8, num_classes=4, kernels=(3, 5), layers_per_stage=2, feature_maps=8),
        synth=dict(num_classes=4, feature_dim=8, noise_sigma=1.0),
        offline=[(20, 20)] * 2 + [(40, 40), (60, 60)],
        train=[(20, 29), (30, 39), (60, 60)],
        stream=[(20, 20), (30, 30)],
        offline_short_per_s=4.0,
        train_short_per_s=2.0,
        stream_frames_per_s=40.0,
        stream_min_frames=40,
        stream_warm_up_frames=4,
    ),
}


def log(msg: str):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def labels_of(logits: np.ndarray) -> np.ndarray:
    """Per-row argmax of the softmax, as `model.predict` defines its labels.

    Calls the unwrapped softmax, so that the benchmark's own work stays out
    of the traced op counts.
    """
    softmax = getattr(numerics.softmax_rows, "__wrapped__", numerics.softmax_rows)
    with numerics.no_grad():
        probs = softmax(numerics.Tensor(logits)).data
    return probs.argmax(axis=1).astype(np.int64)


def environment() -> dict:
    """numpy, its BLAS and the BLAS thread count in effect in this process."""
    env = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
        libs = [ctypes.CDLL(path) for path in libs]
    except OSError:
        libs = []
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                env["blas_threads"] = getattr(lib, symbol)()
                return env
    return env


class Workload:
    """Set-up shared by all workloads; subclasses define the timed request."""

    decoders = 1
    causal = False

    def __init__(self, scale: dict, seed: int, work_dir: str, tracer=None):
        self.scale, self.seed, self.work_dir = scale, seed, work_dir
        self.lengths = scale[self.name]
        self.tracer = tracer

    def setup(self):
        """Set-up as a CLI user pays it; a tracer sees all but the warm-up."""
        if self.tracer is not None:
            self.tracer.enabled = True
        self.prepare()
        if self.tracer is not None:
            self.tracer.enabled = False
        self.reset()
        self.warm_up()

    def prepare(self):
        """Synthesize, write and read back the videos; build, save and load the model."""
        samples = []
        for j, (lo, hi) in enumerate(self.lengths):
            cfg = data.SynthConfig(num_videos=1, t_min=lo, t_max=hi, seed=self.seed * 1000 + j,
                                   **self.scale["synth"])
            train, test, mapping = data.generate_synthetic(cfg)
            for sample in train + test:
                sample.id = f"video_{j:03d}"
                samples.append(sample)
        manifest = data.write_dataset(os.path.join(self.work_dir, "data"), samples, [], mapping)
        cfg = model.ModelConfig(num_decoders=self.decoders, causal=self.causal,
                                **self.scale["model"])
        built = model.build_model(cfg, seed=self.seed)
        ckpt = os.path.join(self.work_dir, "model.ckpt")
        training.save_checkpoint(built, training.AdamState.init(built), ckpt)
        self.model, self.adam = training.load_checkpoint(ckpt)
        self.num_classes = cfg.num_classes
        self.videos = [data.VideoSample(s.id, data.read_feature_file(manifest.feature_path(s.id)),
                                        s.labels) for s in samples]

    def frames(self, i: int) -> int:
        return len(self.videos[i].features)

    def ops(self, i: int) -> int:
        """Operations in one request on video i."""
        return 1

    def schedule(self, seconds: float) -> list[int]:
        """Videos of the requests of one timed phase, in order.

        The requests of `order()`, then `short_per_s * seconds` more that
        cycle through the short videos.
        """
        n = round(self.scale[f"{self.name}_short_per_s"] * seconds)
        return self.order() + list(itertools.islice(itertools.cycle(self.short), n))

    def order(self) -> list[int]:
        return list(range(len(self.videos)))

    def finish(self):
        """Work after the last request that still belongs to the timed phase."""

    def reset(self):
        """Forget the outputs of the previous phase."""

    def warm_up(self):
        """One untimed call, as every CLI invocation pays it."""


class Offline(Workload):
    name = "offline"
    decoders = 3

    def prepare(self):
        super().prepare()
        shortest = min(map(self.frames, range(len(self.videos))))
        self.short = [i for i in range(len(self.videos)) if self.frames(i) == shortest]
        self.long = [i for i in range(len(self.videos)) if self.frames(i) != shortest]
        self.reference = {}

    def warm_up(self):
        model.predict(self.model, self.videos[0].features)

    def order(self):
        """Every video once, then the long ones again: one T=6000 predict alone
        swings by about 7% with the speed of the shared host."""
        return list(range(len(self.videos))) + self.long

    def reset(self):
        self.outputs = {}
        self.reports = []
        self.latency = []

    def step(self, i):
        v = self.videos[i]
        start = time.perf_counter()
        labels = model.predict(self.model, v.features)
        self.latency.append((self.frames(i), time.perf_counter() - start))
        self.reports.append(metrics.evaluate_video(labels, v.labels, self.num_classes, v.id))
        self.outputs.setdefault(i, []).append(labels)
        return self.frames(i)

    def finish(self):
        metrics.aggregate(self.reports)

    def check(self) -> int:
        """predict must equal the argmax of the final forward_full logits,
        which must be finite (None stands for non-finite logits)."""
        failed = 0
        for i, outs in self.outputs.items():
            if i not in self.reference:  # one forward_full per video and process
                logits = model.forward_full(self.model, self.videos[i].features,
                                            mode="infer").final()
                self.reference[i] = labels_of(logits) if np.isfinite(logits).all() else None
            want = self.reference[i]
            failed += sum(want is None or not np.array_equal(got, want) for got in outs)
        return failed

    def summary(self):
        by_length = {}
        for T, s in self.latency:
            by_length.setdefault(T, []).append(1e3 * s)
        ms = {T: percentile(v, 50) for T, v in sorted(by_length.items())}
        metrics_ = {"latency_ms_p50": ms[min(ms)], "latency_ms_long": ms[max(ms)]}
        report = {"short_video_ms_p50": (ms[min(ms)], "ms"),
                  "short_video_samples": (len(by_length[min(ms)]), "count"),
                  "predict_ms_by_T": (ms, "ms")}
        return metrics_, report


class Train(Workload):
    name = "train"
    decoders = 3
    learning_rate = 5e-4

    def prepare(self):
        super().prepare()
        self.config = training.TrainConfig(learning_rate=self.learning_rate, seed=self.seed)
        self.rng = np.random.default_rng(self.seed)
        self.params = self.model.parameters()
        self.long = max(range(len(self.videos)), key=self.frames)
        self.short = [i for i in range(len(self.videos)) if i != self.long]

    def warm_up(self):
        """The first train step; its loss must repeat exactly for a given seed."""
        self.first_loss = self.train_step(self.videos[0])

    def reset(self):
        self.latency = []
        self.losses = []

    def order(self):
        return [self.long] + self.short

    def train_step(self, v) -> float:
        stages = model.forward_full(self.model, v.features, mode="train", rng=self.rng)
        loss = training.total_loss(stages, v.labels, self.config)
        value = loss.item()
        loss.backward()
        training.adam_step(self.params, self.adam, self.config.learning_rate,
                           self.config.adam_betas, self.config.adam_eps)
        return value

    def step(self, i):
        start = time.perf_counter()
        value = self.train_step(self.videos[i])
        self.latency.append((i, time.perf_counter() - start))
        self.losses.append(value)
        return self.frames(i)

    def check(self) -> int:
        """Every loss must be finite."""
        return sum(not math.isfinite(x) for x in self.losses)

    def summary(self):
        steps = [1e3 * s for _, s in self.latency]
        short = [1e3 * s for i, s in self.latency if i != self.long]
        long = [1e3 * s for i, s in self.latency if i == self.long]
        metrics_ = {"latency_ms_p50": percentile(steps, 50),
                    "latency_ms_long": percentile(long, 50)}
        report = {"step_ms_p50": (metrics_["latency_ms_p50"], "ms"),
                  "step_samples": (len(steps), "count"),
                  "short_step_ms_p50": (percentile(short, 50), "ms"),
                  "short_T_p50": (percentile([self.frames(i) for i in self.short], 50), "frames"),
                  "long_step_ms": (metrics_["latency_ms_long"], "ms"),
                  "long_T": (self.frames(self.long), "frames"),
                  "first_loss": (self.first_loss.hex(), "hex")}
        return metrics_, report


class Stream(Workload):
    name = "stream"
    causal = True

    def warm_up(self):
        """A short clip: with two BLAS threads, the first calls at a prefix of
        about 15 frames stall for about 0.5 s once per process."""
        state = model.StreamState()
        for frame in self.videos[0].features[:self.scale["stream_warm_up_frames"]]:
            model.forward_stream(self.model, frame, state)

    def reset(self):
        self.latency = []
        self.outputs = []

    def ops(self, i):
        return self.frames(i)

    def schedule(self, seconds):
        """Whole videos, cycled until the frame count reaches the nominal rate
        times `seconds`, and at least stream_min_frames."""
        want = max(self.scale["stream_min_frames"], self.scale["stream_frames_per_s"] * seconds)
        order, frames = [], 0
        for i in itertools.cycle(range(len(self.videos))):
            if frames >= want:
                return order
            order.append(i)
            frames += self.frames(i)

    def step(self, i):
        v = self.videos[i]
        state = model.StreamState()
        labels = np.empty(self.frames(i), dtype=np.int64)
        nonfinite = 0
        for t, frame in enumerate(v.features):
            if self.tracer is not None:
                self.tracer.request = f"{v.id}:{t}"
            start = time.perf_counter()
            logits = model.forward_stream(self.model, frame, state)
            self.latency.append((self.frames(i) - t, t, time.perf_counter() - start))
            nonfinite += not np.isfinite(logits).all()
            labels[t] = labels_of(logits)[0]
        self.outputs.append((i, labels, nonfinite))
        return self.frames(i)

    def check(self) -> int:
        """Streamed labels must be byte-equal to predict on the same video."""
        failed = 0
        for i, labels, nonfinite in self.outputs:
            want = model.predict(self.model, self.videos[i].features)
            failed += max(nonfinite, int((labels != want).sum()))
        return failed

    def summary(self):
        to_end, t, ms = (np.array(c, dtype=np.float64) for c in zip(*self.latency))
        ms *= 1e3
        # the frames with the longest prefixes: the last ten of every video
        metrics_ = {"latency_ms_p50": percentile(ms, 50),
                    "latency_ms_long": percentile(ms[to_end <= 10], 50)}
        slope, intercept = np.polyfit(t, ms, 1)
        at_t = {mark: percentile(ms[t == mark], 50)
                for mark in sorted({0, 100, 200, int(t.max())}) if mark <= t.max()}
        report = {"frame_ms_p50": (metrics_["latency_ms_p50"], "ms"),
                  "frame_ms_p99": (percentile(ms, 99), "ms"),
                  "frame_samples": (len(ms), "count"),
                  "frame_ms_at_t": (at_t, "ms"),
                  "frame_ms_per_prefix_frame": (float(slope), "ms"),
                  "frame_ms_at_t0_fit": (float(intercept), "ms")}
        return metrics_, report


WORKLOADS = {w.name: w for w in (Offline, Train, Stream)}


def run_phase(wl: Workload, seconds: float) -> dict:
    """Make the requests of `wl.schedule(seconds)` and time them."""
    wl.reset()
    gc.collect()
    attempted = failed = frames = 0
    start = time.perf_counter()
    for i in wl.schedule(seconds):
        if wl.tracer is not None:
            wl.tracer.request = wl.videos[i].id
        attempted += wl.ops(i)
        try:
            frames += wl.step(i)
        except Exception:  # a failed request is counted, and the run goes on
            failed += wl.ops(i)
            log(f"request on {wl.videos[i].id} failed:\n{traceback.format_exc()}")
    wl.finish()
    wall = time.perf_counter() - start
    return {"attempted": attempted, "failed": failed, "frames": frames, "wall_s": wall}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--work-dir", required=True, help="scratch directory; run.py removes it")
    p.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    args = p.parse_args(argv)

    tracer = tracing.install(tracing.Tracer(), msast) if args.trace else None
    wl = WORKLOADS[args.workload](SCALES[args.scale], args.seed, args.work_dir, tracer)
    os.makedirs(args.work_dir)
    wl.setup()
    print(READY, flush=True)
    if args.setup_only:
        result = {}
    elif tracer is None:
        result = _timed(wl, args.seconds)
    else:
        result = _traced(wl, tracer, args.spans)
    if isinstance(wl, Train):
        result["first_loss"] = wl.first_loss.hex()
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


def _timed(wl: Workload, seconds: float) -> dict:
    phase = run_phase(wl, seconds)
    phase["failed"] += wl.check()
    metrics_, report = wl.summary()
    metrics_["frames_per_s"] = phase["frames"] / phase["wall_s"]
    metrics_["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["frames"] = (phase["frames"], "frames")
    report["timed_s"] = (phase["wall_s"], "s")
    return {"attempted": phase["attempted"], "failed": phase["failed"],
            "metrics": metrics_, "report": report}


def _traced(wl: Workload, tracer, spans_path) -> dict:
    """An untraced and a traced pass over the same requests, after a first
    untraced pass that pays the process's first-touch page faults (several
    seconds on the long videos) so that neither measured pass does."""
    first = run_phase(wl, 0.0)
    first["failed"] += wl.check()
    plain = run_phase(wl, 0.0)
    plain["failed"] += wl.check()
    tracer.enabled = True
    traced = run_phase(wl, 0.0)
    tracer.enabled = False
    traced["failed"] += wl.check()
    layer = tracing.layer_metrics(tracer)
    fps, plain_fps = traced["frames"] / traced["wall_s"], plain["frames"] / plain["wall_s"]
    layer["trace.frames_per_s"] = (fps, "frames/s")
    layer["trace.untraced_frames_per_s"] = (plain_fps, "frames/s")
    layer["trace.overhead_frac"] = (plain_fps / fps - 1.0, "frac")
    layer["trace.spans"] = (float(len(tracer)), "count")
    if spans_path:
        tracer.write(spans_path)
    return {"attempted": first["attempted"] + plain["attempted"] + traced["attempted"],
            "failed": first["failed"] + plain["failed"] + traced["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
            "report": {"absent": (sorted(tracer.absent), "names"),
                       "untraced_s": (plain["wall_s"], "s"), "traced_s": (traced["wall_s"], "s")}}


if __name__ == "__main__":
    sys.exit(main())
