"""stockframe benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload frame1d-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25 [--trace 1]     # every workload, one process each

Run from any directory; the library is imported from ``src/`` next to
this directory, with every thread pool pinned to one thread.  One client
sends one request at a time, cycling through the workload's configs in
whole rounds (one request per config) until ``--seconds`` have passed.
Every request's output is checked; the checks run between requests and
are not timed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
repeated set-ups), ``mid_config_best_ms`` and ``heavy_config_best_ms``
(the fastest request of the config holding the median and of the one
holding the tail), ``mix_best_requests_per_s`` (configs over the sum of
their fastest requests) and ``peak_rss_mb``.  The report lines also give
``request_p50_ms``, ``request_tail_ms`` (highest percentile with at least
ten requests beyond it), ``requests_per_s`` and ``failed_frac`` over all
requests.

``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics: each ``<module>.<function>.s`` is the self time of
one pass (the traced set-up once plus the mean traced round), the work
counts of the configs, and ``trace.overhead_frac``.  Lines starting with ``#`` are the
human-readable report; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
WORKLOAD_NAMES = ("frame1d-stream", "frame-design", "basis-long", "nd-stream")

# The variables stockframe's CLI sets from STOCKFRAME_THREADS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"

# Untraced, set-up is repeated enough times to add up to about
# SETUP_SECONDS, within these limits.
SETUP_SECONDS = 1.0
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 50
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 600


@dataclass
class Record:
    config: int
    latency: float
    ok: bool
    honest: bool
    traced: bool


def pin_threads() -> None:
    for var in THREAD_VARS + ("STOCKFRAME_THREADS",):
        os.environ[var] = THREADS


def import_library() -> None:
    if not (SRC / "stockframe" / "__init__.py").is_file():
        sys.exit(f"error: stockframe sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS + ("STOCKFRAME_THREADS",)},
        "seed": seed,
    }


def tail_percentile(sorted_vals: list[float]) -> tuple[float, float]:
    """(p, value): the highest listed percentile, by nearest rank, with at
    least TAIL_MIN_BEYOND samples above it."""
    n = len(sorted_vals)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, sorted_vals[rank - 1]
    return 100.0, sorted_vals[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_stream(wl, inputs, seconds: float, tracer, null):
    """Set up, warm up with one untimed round, then run whole rounds until
    `seconds` of request time have passed.

    Untraced, the set-up is repeated at even steps of request time, each
    repeat replacing the state the requests use, so that its median
    samples the whole run.  Traced, it runs once, with spans; odd rounds
    are traced and the round count is even.
    """
    setup_times: list[float] = []

    def setup(t):
        t0 = perf_counter()
        state = wl.setup(t)
        setup_times.append(perf_counter() - t0)
        return state

    if tracer is not None:
        tracer.request = "setup"
        state = setup(tracer)
        reps = 1
    else:
        state = setup(null)
        reps = min(SETUP_MAX_REPS,
                   max(SETUP_MIN_REPS, math.ceil(SETUP_SECONDS / setup_times[0])))
    for ci, pool in enumerate(inputs):
        wl.request(ci, state[ci], pool[0], null)
    records: list[Record] = []
    errors: list[str] = []
    rounds = 0
    start = perf_counter()
    while True:
        t = tracer if tracer is not None and rounds % 2 else null
        for ci, pool in enumerate(inputs):
            item = pool[rounds % len(pool)]
            t.request = len(records)
            t0 = perf_counter()
            try:
                with t.span("request"):
                    result = wl.request(ci, state[ci], item, t)
                latency = perf_counter() - t0
                outcome = wl.check(ci, item, result)
                records.append(Record(ci, latency, outcome.ok, outcome.honest, t.enabled))
            except Exception as exc:  # noqa: BLE001 - a failed request, the stream goes on
                errors.append(f"{wl.configs[ci].label}: {exc!r}")
                records.append(Record(ci, perf_counter() - t0, False, False, t.enabled))
        rounds += 1
        busy = perf_counter() - start - sum(setup_times[1:])
        while len(setup_times) < reps and busy >= seconds * len(setup_times) / reps:
            state = None  # free the previous set-up before timing the next
            state = setup(null)
        if busy >= seconds and (tracer is None or rounds % 2 == 0):
            return state, setup_times, records, rounds, errors


def end_to_end(setup_times: list[float], records: list[Record], k: int) -> tuple[dict, list[str]]:
    """Gated metrics from each config's fastest request, plus the plain
    latency figures as report notes.

    On a shared 2-vCPU virtual machine the speed of the host drifts by
    1.3-2x for seconds at a time.  Over 20 s windows of one long run,
    request medians spread by 0.12-0.50 of their median (quartile
    distance), each config's fastest request by 0.04-0.14.
    """
    lat_ms = sorted(r.latency * 1e3 for r in records)
    n = len(lat_ms)
    best = sorted(min(r.latency for r in records if r.config == ci) * 1e3 for ci in range(k))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "mid_config_best_ms": metric(statistics.median(best), "ms"),
        "heavy_config_best_ms": metric(best[-1], "ms"),
        "mix_best_requests_per_s": metric(k / (sum(best) / 1e3), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    pct, tail = tail_percentile(lat_ms)
    notes = [f"setup_s over {len(setup_times)} set-ups",
             f"request_p50_ms = {statistics.median(lat_ms):.6g} ms",
             f"request_tail_ms = {tail:.6g} ms (p{pct:g} of {n} requests, "
             f"{n - math.ceil(pct / 100 * n)} beyond it)",
             f"requests_per_s = {n / (sum(lat_ms) / 1e3):.6g} 1/s"]
    return metrics, notes


def per_layer(wl, state, tracer, records: list[Record], rounds: int) -> tuple[dict, list[str]]:
    from spans import self_times
    from workloads import COUNTS, LAYER_CALLS

    traced_rounds = rounds // 2
    secs = dict.fromkeys(LAYER_CALLS, 0.0)
    calls = dict.fromkeys(LAYER_CALLS, 0.0)
    root = {}
    probes = defaultdict(float)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        if s.name == "request":
            root[s.request] = s.end - s.start
            continue
        if s.probe and s.request != "setup":
            probes[s.request] += s.end - s.start
        weight = 1.0 if s.request == "setup" else 1.0 / traced_rounds
        secs[s.name] += own * weight
        calls[s.name] += weight
    traced = sum(dur - probes[req] for req, dur in root.items())
    untraced = sum(r.latency for r in records if not r.traced)
    metrics = {f"{name}.s": metric(secs[name], "s") for name in LAYER_CALLS}
    counts = dict.fromkeys(COUNTS, 0)
    counts.update(wl.counts(state))
    metrics.update({name: metric(value, COUNTS[name]) for name, value in counts.items()})
    metrics["trace.overhead_frac"] = metric(traced / untraced - 1.0, "ratio")
    notes = [f"per pass = traced set-up + mean of {traced_rounds} traced rounds; "
             f"{len(tracer.spans)} spans"]
    notes += [f"{name}.s {secs[name]:.6g} s, {calls[name]:g} calls per pass"
              for name in LAYER_CALLS if calls[name]]
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import numpy as np

    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    env = environment(seed)
    null = NullTracer()
    tracer = Tracer() if traced else None
    io_dir = RUN_DIR / f"io-{os.getpid()}"
    io_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(np.random.default_rng(seed), io_dir)
        state, setup_times, records, rounds, errors = run_stream(wl, inputs, seconds, tracer, null)
        if traced:
            metrics, notes = per_layer(wl, state, tracer, records, rounds)
            RUN_DIR.mkdir(exist_ok=True)
            tracer.write(RUN_DIR / f"spans-{name}-seed{seed}.json",
                         {"workload": name, "env": env})
        else:
            metrics, notes = end_to_end(setup_times, records, len(wl.configs))
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    by_config = defaultdict(list)
    for r in records:
        by_config[r.config].append(r)
    print(f"# env {json.dumps(env)}")
    print(f"# workload {name}: seed {seed}, {len(records)} requests in {rounds} rounds, "
          f"trace {int(traced)}")
    for ci, cfg in enumerate(wl.configs):
        recs = by_config[ci]
        p50 = statistics.median(r.latency for r in recs) * 1e3
        print(f"#   config {cfg.label}: {len(recs)} requests, p50 {p50:.4g} ms, "
              f"{sum(not r.ok for r in recs)} failed")
    for note in notes:
        print(f"# {note}")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac = {failed}/{len(records)} = {failed / len(records):.6g}")
    for err in errors[:5]:
        print(f"# error {err}")
    correct = all(r.honest for r in records)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to it."""
    code = 0
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
            continue
        result = json.loads(lines[-1])
        summary.append((name, result))
    print("# summary")
    for name, result in summary:
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                 if not k.endswith(".s")]
        frac = result["failed"] / result["attempted"]
        print(f"# {name}: " + ", ".join(cells) + f", failed_frac={frac:.6g}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    pin_threads()
    import_library()
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
