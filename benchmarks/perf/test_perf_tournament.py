"""Benchmarks for the cached, parallel profile tournament.

Times a cold channel-matrix sweep (every cell through the real DSP
chain) against the same sweep answered entirely by a warm
:class:`~repro.sim.tournament.SweepStore` — the memoisation that makes
re-running ``repro tournament`` after a config tweak cheap.  The
frontier artifacts (JSON + SVG) land in ``benchmarks/output/`` so CI
uploads them alongside the run's bench sections.

Results land in the ``tournament`` section of ``BENCH_pipeline.json``;
every run, ``--smoke`` or not, requires a warm/cold ratio >= 100x.

Run explicitly (tier-1 skips timing-sensitive tests):

    python -m repro bench            # or
    python -m pytest benchmarks/perf -m perf -s
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import OUTPUT_DIR, best_time, print_table
from repro.sim.tournament import (
    TournamentConfig,
    run_tournament,
    write_frontier_report,
)

pytestmark = pytest.mark.perf

BENCH_SWEEP = dict(
    snr_grid_db=(-2.0, 2.0, 6.0, 12.0),
    distance_grid_m=(0.2, 0.8),
    rssi_grid_dbm=(-70.0, -88.0),
    payload_bytes=24,
    n_messages=4,
    master_seed=11,
)


class TestTournamentSweep:
    def test_cold_vs_warm_store(self, record, tmp_path):
        config = TournamentConfig(**BENCH_SWEEP, store_dir=str(tmp_path))

        t0 = time.perf_counter()
        cold = run_tournament(config, processes=1)
        t_cold = time.perf_counter() - t0
        assert cold.n_cached == 0

        t_warm, warm = best_time(lambda: run_tournament(config, processes=1))
        assert warm.n_cached == len(warm.cells)
        key = lambda c: (c.profile, c.axis, c.value, c.n_frames, c.n_lost)
        assert [key(c) for c in warm.cells] == [key(c) for c in cold.cells]

        frontier = cold.frontier()
        assert {row["profile"] for row in frontier} == set(config.profiles)
        OUTPUT_DIR.mkdir(exist_ok=True)
        write_frontier_report(
            cold, OUTPUT_DIR / "frontier.json", OUTPUT_DIR / "frontier.svg"
        )

        ratio = t_cold / t_warm
        section = {
            "n_cells": len(cold.cells),
            "cold_s": t_cold,
            "warm_s": t_warm,
            "warm_speedup": ratio,
            "cells_per_s_cold": len(cold.cells) / t_cold,
        }
        record("tournament", section)
        print_table(
            "Profile tournament: cold DSP sweep vs warm SweepStore",
            ["metric", "value"],
            [
                ["cells", str(section["n_cells"])],
                ["cold", f"{t_cold:.2f} s"],
                ["warm", f"{t_warm * 1e3:.1f} ms"],
                ["warm speedup", f"{ratio:.0f}x"],
                ["frontier", str(OUTPUT_DIR / "frontier.json")],
            ],
        )
        assert ratio >= 100.0, f"warm store only {ratio:.0f}x faster"
