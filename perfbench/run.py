"""Benchmark of msast: the offline, train and stream workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (perfbench/worker.py) that import
msast from ./src. An untraced run (--trace 0) sets the workload up three
times, each in a new process, reports the median set-up time as setup_s,
and times the workload in the last process. A traced run (--trace 1) gives
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name every metric with its unit. A copy of the full result, with the
environment, goes to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("offline", "train", "stream")
SETUPS = 3
DEADLINE_S = 170.0  # per workload; a run must end within 180 s
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
    "latency_ms_p50": "ms",
    "latency_ms_long": "ms",
}


class RunError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    """Environment for workers: msast from ./src, BLAS threads at most nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = min(nproc, max(1, int(env.get("OPENBLAS_NUM_THREADS", nproc))))
    except ValueError:
        threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args: list[str], work_dir: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker in `work_dir`; returns (seconds from spawn to READY, its result)."""
    shutil.rmtree(work_dir, ignore_errors=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args,
                             "--work-dir", str(work_dir)],
                            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready = last = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0 or ready is None or last is None:
        raise RunError(f"worker {' '.join(args[:2])} exited with code {code}")
    return ready, json.loads(last)


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--scale", scale]
    tag = f"{workload}-seed{seed}-trace{trace}"
    work_dir = OUT / f"work-{os.getpid()}-{tag}"
    if trace:
        spans = ["--spans", str(OUT / f"{tag}.spans.npz")]
        return spawn(common + ["--trace", "1"] + spans, work_dir, deadline)[1]
    setups, losses = [], []
    for k in range(SETUPS):
        extra = [] if k == SETUPS - 1 else ["--setup-only"]
        setup_s, result = spawn(common + extra, work_dir, deadline)
        setups.append(setup_s)
        losses.append(result.get("first_loss"))
    if workload == "train":
        # the first-step loss must repeat exactly across processes for one seed
        result["attempted"] += SETUPS - 1
        result["failed"] += sum(loss != losses[0] for loss in losses[1:])
    result["report"]["setup_s_each"] = (setups, "s")
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return result


def environment(seed: int, worker: dict) -> dict:
    env = worker_env()
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads_set": int(env["OPENBLAS_NUM_THREADS"]),
        **worker,
    }


def print_result(workload: str, result: dict):
    """One line per figure: workload, name, value, unit."""
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in result["report"].items():
        print(f"{workload} {name} {json.dumps(value)} {unit}")
    print(f"{workload} failed_frac {result['failed'] / result['attempted']:.6g} frac")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of msast (offline, train, stream).")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny model and short videos, to test the benchmark itself")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "msast" / "__init__.py").is_file():
        print(f"perfbench: no msast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through spawn(), which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    scale = "smoke" if args.smoke else "full"
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, scale)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        result["env"] = environment(args.seed, result.pop("env", {}))
        print(f"{workload} env {json.dumps(result['env'])}")
        print_result(workload, result)
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
