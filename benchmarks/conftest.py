"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's evaluation artifacts and
prints the corresponding rows/series next to the paper's reported values
(see EXPERIMENTS.md).  Scale knobs:

* ``REPRO_FULL=1`` — run at the paper's full corpus sizes (slower).
* visual artifacts (Figure 1 panels, sample pages) are written to
  ``benchmarks/output/``.

The perf benchmarks (``benchmarks/perf``, run by ``repro bench``) time
with :func:`best_time` and hand each section to :func:`record_section`.
Under ``--smoke`` (``repro bench --smoke``) a section is compared with
the checked-in ``BENCH_pipeline.json`` instead of being written to it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"

#: The checked-in perf baseline at the repository root.
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
#: Where a smoke run leaves the sections it measured (gitignored).
SMOKE_JSON = OUTPUT_DIR / "BENCH_pipeline.json"

#: A timed operation repeats until its repeats add up to this much wall
#: time; the fastest repeat is the measurement.
MIN_TIME_S = 1.0


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="compare each perf section with the checked-in "
        "BENCH_pipeline.json instead of writing it",
    )


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Uniform experiment-output formatting."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def best_time(fn):
    """``(seconds, result)`` of the fastest timed call of ``fn()``.

    One untimed warm-up call comes first; timed calls follow until they
    add up to :data:`MIN_TIME_S`.  The minimum over a fixed wall-time
    budget filters scheduler noise that a fixed best-of-N over a
    few-millisecond call cannot.
    """
    fn()
    best = float("inf")
    spent = 0.0
    while spent < MIN_TIME_S:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, best_result = elapsed, result
        spent += elapsed
    return best, best_result


@functools.cache
def _baseline(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _merge(path: Path, name: str, section: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data[name] = section
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _lookup(section: dict, key: str) -> float:
    for part in key.split("."):
        section = section[part]
    return section


def record_section(
    name: str,
    section: dict,
    bounds: dict[str, float] | None = None,
    *,
    smoke: bool,
    baseline_json: Path = BENCH_JSON,
    smoke_json: Path = SMOKE_JSON,
) -> None:
    """Record one perf section, or gate it against the baseline.

    ``bounds`` maps a key of ``section`` (dotted for nested values) to
    its regression bound.  Record mode merges the section into
    ``baseline_json``.  Smoke mode never writes ``baseline_json``: it
    merges the section into ``smoke_json`` and fails unless every
    bounded value reaches ``bound x`` its checked-in baseline value.
    """
    if not smoke:
        _merge(baseline_json, name, section)
        return
    _merge(smoke_json, name, section)
    baseline = _baseline(baseline_json).get(name)
    if baseline is None:
        pytest.fail(
            f"{baseline_json.name} has no {name!r} section to compare with; "
            f"run `python -m repro bench` to record it",
            pytrace=False,
        )
    failures = []
    for key, bound in (bounds or {}).items():
        now, base = _lookup(section, key), _lookup(baseline, key)
        line = (
            f"{name}.{key} = {now:.4g} vs baseline {base:.4g} "
            f"({now / base:.2f}x, bound {bound:g}x)"
        )
        print(f"smoke: {line}")
        if now < bound * base:
            failures.append(line)
    if failures:
        pytest.fail("regressed: " + "; ".join(failures), pytrace=False)


@pytest.fixture(scope="session")
def record(request):
    """:func:`record_section` in this run's mode (``--smoke`` or not)."""
    smoke = request.config.getoption("smoke")
    if smoke:
        SMOKE_JSON.unlink(missing_ok=True)  # hold this run's sections only
    return functools.partial(record_section, smoke=smoke)
