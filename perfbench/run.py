"""Request-to-pixels benchmark of the SONIC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fm_day --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` runs the day once untraced and once with per-layer span
wrappers (see layers.py) and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
run whose outputs do not verify prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One compute thread: on a host with few cores a BLAS thread pool measures
# the scheduler, not the program.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE.parent / ".perfbench-out"

#: Set-ups per run before the first measured day; setup_s is their median.
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "sim_rt_x": "x",
    "page_latency_p50_s": "s",
    "page_latency_p99_s": "s",
    "served_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its (waited-for) children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_setup(workload, seed: int, setups: list[float]):
    gc.collect()  # the previous day's system is garbage by now; free it first
    t0 = time.perf_counter()
    day = workload.setup(seed)
    setups.append(time.perf_counter() - t0)
    return day


def _measure(workload, seed: int, seconds: float, import_s: float):
    """Set up SETUPS times, then run the day (fresh set-up each time) while
    another repeat, at the mean pace so far, still ends within ``seconds``;
    at least once."""
    import numpy as np

    setups: list[float] = []
    for _ in range(SETUPS):
        day = None  # drop the last set-up so it is freed before the next
        day = _timed_setup(workload, seed, setups)
    results = []
    start = time.perf_counter()
    while True:
        result = day.run()
        day.verify(result)
        results.append(result)
        if len(results) == 1:
            # Later repeats would add the first day's leftover heap.
            peak_rss_mb = _peak_rss_mb()
        day.close()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            break
        day = None
        day = _timed_setup(workload, seed, setups)

    first = results[0]
    problems = [p for r in results for p in r.problems]
    if len({r.fingerprint for r in results}) > 1:
        problems.append("repeats of the same seed produced different outcomes")
    # Totals over all repeats: the host's speed drifts over tens of seconds,
    # so the whole run's mean spreads less than a median of repeats does.
    wall = sum(r.wall_s for r in results)
    lat = first.latencies_s
    if lat.size == 0:
        problems.append("no request was served")
        lat = np.zeros(1)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "requests_per_s": sum(r.attempted for r in results) / wall,
        "sim_rt_x": sum(r.sim_s for r in results) / wall,
        "page_latency_p50_s": float(np.percentile(lat, 50)),
        "page_latency_p99_s": float(np.percentile(lat, 99)),
        "served_frac": first.served / first.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = int((lat > metrics["page_latency_p99_s"]).sum())
    print(f"workload {workload.name}  seed {seed}")
    print(f"  days measured {len(results)}  day wall {[round(r.wall_s, 3) for r in results]} s")
    print(
        f"  set-up: imports {import_s:.3f} s + median of {len(setups)} set-ups "
        f"{statistics.median(setups):.3f} s  {[round(s, 3) for s in setups]}"
    )
    print(
        f"  requests: {first.attempted} attempted, {first.served} served and verified, "
        f"{first.failed} failed verification; simulated {first.sim_s:.1f} station-s"
    )
    print(
        f"  latency samples {lat.size}: p50 over all {lat.size}, "
        f"p99 with {beyond} samples beyond it"
    )
    for note in first.notes:
        print(f"  note: {note}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<22} {metrics[name]:>14.4f} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def _trace(workload, seed: int):
    """One untraced and one traced day; per-layer metrics of the latter."""
    import layers

    setups: list[float] = []
    day = _timed_setup(workload, seed, setups)
    untraced = day.run()
    day.verify(untraced)
    day.close()

    day = None
    day = _timed_setup(workload, seed, setups)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = tracer.root(day.run)
    finally:
        tracer.uninstall()
    probes = day.layer_probes()
    day.verify(traced)
    day.close()

    problems = untraced.problems + traced.problems
    if traced.fingerprint != untraced.fingerprint:
        problems.append("tracing changed the day's outcome")
    metrics = layers.layer_metrics(tracer, probes, traced.wall_s, untraced.wall_s)
    path = OUT / f"{workload.name}-seed{seed}.spans.npz"
    tracer.write(path)
    print(f"workload {workload.name}  seed {seed}  (traced)")
    print(
        f"  {len(tracer.span_start)} spans -> {path.relative_to(HERE.parent)}; "
        f"untraced sim_rt_x {untraced.sim_s / untraced.wall_s:.3f}, "
        f"traced {traced.sim_s / traced.wall_s:.3f}"
    )
    for note in traced.notes:
        print(f"  note: {note}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    for m in layers.METRICS:
        print(f"  {m.name:<30} {metrics[m.name]:>16.4f} {m.unit:<6} moves {m.moves}")
    return {
        "correct": not problems,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in layers.METRICS
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import days  # imports the program (numpy, scipy, repro)

    import_s = time.perf_counter() - t0
    workload = days.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(days.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        report = _trace(workload, args.seed)
    else:
        report = _measure(workload, args.seed, args.seconds, import_s)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
