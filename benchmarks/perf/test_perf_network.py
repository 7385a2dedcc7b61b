"""Throughput benchmark for the sharded multi-station broadcast network.

Simulates a multi-region broadcast day through
:func:`repro.server.network.run_network`, measures simulated
station-hours per wall-clock second, checks the sharded run reproduces
the serial reference bit for bit (per-station ledger digests and
schedule digests), and merges the numbers — including the honest
per-station goodput floor — into ``BENCH_pipeline.json``.

Per-station backlog/goodput/latency reports are written to
``benchmarks/output/network_stations.json`` (uploaded as a CI artifact).

Run explicitly:

    python -m repro bench -k network           # smoke scale (3 x 6 h)
    REPRO_FULL=1 python -m repro bench -k network    # 6 stations / 24 h
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import best_time, full_scale, print_table
from repro.server.network import NetworkConfig, run_network

pytestmark = pytest.mark.perf

#: The smoke day keeps every carousel saturated, so each station must
#: sustain at least half the slowest profile rung's payload rate.
GOODPUT_FLOOR_BPS = 1_500.0


class TestBroadcastNetwork:
    def test_network_throughput(self, output_dir, record):
        if full_scale():
            config = NetworkConfig(n_stations=6, hours=24, tick_s=60.0, seed=42)
        else:
            config = NetworkConfig(n_stations=3, hours=6, tick_s=120.0, seed=42)

        elapsed, serial = best_time(lambda: run_network(config))
        sharded = run_network(config, sharded=True)

        # Determinism contract: sharding is a pure execution detail.
        assert serial.network_digest() == sharded.network_digest()
        for a, b in zip(serial.stations, sharded.stations):
            assert a.ledger_digest == b.ledger_digest

        min_goodput = min(s.goodput_bps for s in serial.stations)

        station_hours = config.n_stations * config.hours
        section = {
            "n_stations": config.n_stations,
            "hours": config.hours,
            "elapsed_s": elapsed,
            "station_hours_per_s": station_hours / elapsed,
            "min_goodput_bps": min_goodput,
            "goodput_floor_bps": GOODPUT_FLOOR_BPS,
            "store_hits": serial.store_hits,
            "store_misses": serial.store_misses,
            "network_digest": serial.network_digest(),
        }

        report_path = output_dir / "network_stations.json"
        report_path.write_text(
            json.dumps(serial.to_json_dict(), indent=2) + "\n"
        )

        print_table(
            f"Broadcast network ({config.n_stations} stations x "
            f"{config.hours} h)",
            ["metric", "value"],
            [
                ["simulation rate", f"{station_hours / elapsed:,.0f} station-hours/s"],
                ["min goodput", f"{min_goodput / 1e3:.1f} kbps"],
                ["store hit rate",
                 f"{100 * serial.store_hits / max(1, serial.store_hits + serial.store_misses):.0f}%"],
                ["digest", serial.network_digest()[:16]],
                ["reports", report_path.name],
            ],
        )
        record("network", section, {"station_hours_per_s": 0.7})
        assert min_goodput >= GOODPUT_FLOOR_BPS
        assert all(s.n_broadcast > 0 for s in serial.stations)
