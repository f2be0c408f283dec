"""Measurement loops, environment record and result output behind run.py.

A run measures one workload as a closed loop of one caller in one process:
each call goes into a fresh output directory, and the next call starts
after the previous one has returned and been checked.

- `--trace 0` reports the end-to-end metrics: setup_s (median over fresh
  interpreters), wall_norm_s (median over calls with tracing off) and
  peak_rss_mb. setup_s and wall_norm_s are seconds at the reference speed
  of speed.py's probe, which takes out the shared host's slow phases; the
  raw wall and set-up seconds are printed beside them and kept in the record.
- `--trace 1` alternates untraced and traced calls and reports the
  per-layer metrics of spans.layer_metrics plus trace.overhead_s, the
  median traced wall time minus the median untraced one.

Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
SETUP_PROBES = 50
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass
class Call:
    seconds: float | None  # None when the call raised
    problems: list[str]
    io_bytes: int
    run_id: int | None = None  # set for traced calls
    ref_seconds: float | None = None  # at the reference speed, for sampled calls


def tail_percentile(samples, candidates=TAIL_PERCENTILES):
    """(p, value) for the highest candidate percentile with at least ten
    samples beyond it, by nearest rank; None when no candidate has ten."""
    xs = sorted(samples)
    best = None
    for p in candidates:
        rank = math.ceil(len(xs) * p / 100.0)
        if rank >= 1 and len(xs) - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def timed_call(workload: workloads.Workload, out_root: str, tracer=None, sampled=False) -> Call:
    """One workload call into a fresh output directory, then its output check.

    A `sampled` call also probes the host's speed during the call, and
    gets its seconds at the reference speed as well.
    """
    out_dir = tempfile.mkdtemp(prefix=workload.name + "-", dir=out_root)
    run_id = None
    try:
        gc.collect()
        if tracer is not None:
            run_id = tracer.run_id
            root = tracer.span(spans.ROOT_PREFIX + workload.entry)
        else:
            root = nullcontext()
        sampler = speed.Sampler() if sampled else None
        with sampler or nullcontext():
            t0 = time.perf_counter()
            try:
                with root:
                    summary = workload.call(out_dir)
            except Exception:  # a failing call is counted and reported, not fatal
                return Call(None, [traceback.format_exc(limit=3)], 0, run_id)
            seconds = time.perf_counter() - t0
        ref_seconds = None
        if sampler is not None:
            seconds -= sampler.spent
            ref_seconds = speed.rescale(seconds, sampler.samples)
        try:
            problems = workload.check(summary, out_dir)
        except Exception:  # an unreadable output fails its check
            problems = [traceback.format_exc(limit=3)]
        return Call(seconds, problems, _tree_bytes(out_dir), run_id, ref_seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _repeat(step, seconds: float, at_least: int) -> None:
    """Run `step` `at_least` times, then again while the median step time
    still fits in `seconds`, so that a run ends within its time."""
    start = time.perf_counter()
    steps: list[float] = []
    while len(steps) < at_least or time.perf_counter() - start + statistics.median(steps) <= seconds:
        t0 = time.perf_counter()
        step()
        steps.append(time.perf_counter() - t0)


def run_untraced(workload, seconds: float, out_root: str) -> list[Call]:
    """At least two calls: a sweep call is half a run, and one call alone
    would let a slow phase of the shared host decide the median."""
    calls: list[Call] = []
    _repeat(lambda: calls.append(timed_call(workload, out_root, sampled=True)), seconds, 2)
    return calls


def run_traced(workload, seconds: float, out_root: str, tracer) -> list[Call]:
    """Alternating untraced and traced calls, at least one of each."""
    calls: list[Call] = []

    def pair():
        calls.append(timed_call(workload, out_root))
        with tracer:
            calls.append(timed_call(workload, out_root, tracer))
        tracer.run_id += 1

    _repeat(pair, seconds, 1)
    return calls


def measure_setup(workload, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Seconds to import aggmfg and validate the config, each in a fresh
    interpreter, and the probe times taken in this process before each."""
    job = json.dumps({"entry": workload.entry, "config": workload.config})
    times, probes = [], []
    for _ in range(repeats):
        # the child runs while this process waits, so probe just before it
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py")],
            input=job, capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times, probes


def warm_up(out_root: str) -> None:
    """Load lazily imported code paths on tiny 1D and 2D solves before timing."""
    from aggmfg import runs

    for dim in (1, 2):
        cfg = workloads.solve_config(dim, 8.0, 17, 8, 0.05, 1.0)
        out_dir = tempfile.mkdtemp(prefix="warmup-", dir=out_root)
        try:
            runs.run_single(cfg, out_dir=out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# --- environment record -----------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code outside git too."""
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(os.path.join(SRC, "aggmfg"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def probe_ms(repeats: int = 50) -> float:
    """Median milliseconds of speed.py's probe kernel.

    The host's other tenants change this machine's speed without showing in
    its load average; this probe, taken at the start and end of a run, does.
    """
    return statistics.median(speed.probe() for _ in range(repeats)) * 1e3


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "loadavg_1m_start": os.getloadavg()[0],
        "probe_ms_start": probe_ms(),
    }


# --- result -----------------------------------------------------------------

def benchmark_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, seconds: float):
    """setup_s, wall_norm_s and peak_rss_mb, with tracing off."""
    setup, setup_probes = measure_setup(workload)
    warm_up(OUT_ROOT)
    calls = run_untraced(workload, seconds, OUT_ROOT)
    done = [c for c in calls if c.seconds is not None]
    if not done:
        raise RuntimeError("every workload call raised:\n" + calls[0].problems[0])
    walls = [c.seconds for c in done]
    norm = [c.ref_seconds for c in done]
    metrics = {
        "setup_s": speed.rescale(statistics.median(setup), setup_probes),
        "wall_norm_s": statistics.median(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    def tail(samples):
        t = tail_percentile(samples)
        return f"; p{t[0]:g} {_fmt(t[1])} s)" if t else "; too few calls for a tail percentile)"

    lines = [
        f"setup_s {_fmt(metrics['setup_s'])} s at reference speed, raw "
        f"{_fmt(statistics.median(setup))} s (median of {len(setup)} fresh interpreters)",
        f"wall_norm_s {_fmt(metrics['wall_norm_s'])} s at reference speed (median of {len(norm)} calls"
        + tail(norm),
        f"wall_s {_fmt(statistics.median(walls))} s raw (median of {len(walls)} calls" + tail(walls),
        f"peak_rss_mb {_fmt(metrics['peak_rss_mb'])} MB",
    ]
    record = {
        "setup_samples": setup,
        "setup_probe_samples": setup_probes,
        "wall_samples": walls,
        "wall_norm_samples": norm,
    }
    return metrics, calls, lines, record


def per_layer(workload, seconds: float, spans_path: str):
    """Per-layer metrics from traced calls, and the tracing overhead."""
    warm_up(OUT_ROOT)
    tracer = spans.Tracer()
    calls = run_traced(workload, seconds, OUT_ROOT, tracer)
    traced = [c for c in calls if c.run_id is not None and c.seconds is not None]
    plain = [c.seconds for c in calls if c.run_id is None and c.seconds is not None]
    if not traced or not plain:
        raise RuntimeError("every traced or every untraced workload call raised")
    by_run: dict[int, list] = {}
    for s in tracer.spans:
        by_run.setdefault(s[5], []).append(s)
    per_call = [
        spans.layer_metrics(spans.SpanTable(by_run[c.run_id], spans.STENCILS), tracer.tags, c.io_bytes)
        for c in traced
    ]
    metrics = spans.median_metrics(per_call)
    metrics["trace.overhead_s"] = statistics.median(c.seconds for c in traced) - statistics.median(plain)
    tracer.save(spans_path)
    lines = []
    if tracer.missing:
        lines.append("wrapped names missing, their metrics read 0: " + ", ".join(tracer.missing))
    return metrics, calls, lines, {"missing": tracer.missing, "per_call": per_call}


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        # each workload in a fresh interpreter, so that peak_rss_mb stays its own
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(
            subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name] + options, cwd=ROOT
            ).returncode
            for name in workloads.WORKLOAD_NAMES
        )
    try:
        import aggmfg
    except ImportError as exc:
        print(f"cannot import aggmfg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(aggmfg.__file__).startswith(SRC + os.sep):
        print(f"aggmfg was imported from {aggmfg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    workload = workloads.make_workload(args.workload, args.seed)
    os.makedirs(OUT_ROOT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("config " + json.dumps(workload.config, sort_keys=True))
    try:
        if args.trace == 0:
            metrics, calls, lines, record = end_to_end(workload, args.seconds)
            units = benchmark_units("end_to_end")
        else:
            spans_path = os.path.join(OUT_ROOT, f"spans-{tag}.npz")
            metrics, calls, lines, record = per_layer(workload, args.seconds, spans_path)
            units = benchmark_units("per_layer")
            lines += [f"{name} {_fmt(metrics[name])} {units[name]}" for name in units]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1

    failed = sum(1 for c in calls if c.problems)
    lines.append(f"check_fail_frac {failed / len(calls):.6g} ({failed} of {len(calls)} calls failed)")
    lines += ["check failed: " + p.strip() for c in calls for p in c.problems]
    env.update(probe_ms_end=probe_ms(), loadavg_1m_end=os.getloadavg()[0])
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(env=env, config=workload.config, seed=args.seed, result=result)
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0
