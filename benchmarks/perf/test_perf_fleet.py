"""Throughput benchmark for the parallel receiver-fleet harness.

Measures how fast :func:`repro.sim.receivers.run_fleet` pushes one
broadcast waveform through N impaired receivers, serially and on the
``multiprocessing`` pool, and merges the numbers into the same
``BENCH_pipeline.json`` the pipeline benchmarks write.

Run explicitly:

    python -m repro bench -k fleet
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from benchmarks.conftest import best_time, full_scale, print_table
from repro.modem.modem import Modem
from repro.sim.receivers import FleetConfig, run_fleet

pytestmark = pytest.mark.perf


class TestFleetThroughput:
    def test_fleet_scaling(self, record):
        modem = Modem("sonic-ofdm")
        n_frames = 32 if full_scale() else 16
        n_receivers = 8 if full_scale() else 4
        rng = np.random.default_rng(19)
        wave = modem.transmit_burst(
            [
                rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
                for _ in range(n_frames)
            ]
        )
        audio_s = wave.size / modem.profile.ofdm.sample_rate
        config = FleetConfig(
            n_receivers=n_receivers,
            master_seed=23,
            impairment="awgn",
            snr_db=14.0,
            frames_per_burst=n_frames,
        )

        pool_size = min(4, os.cpu_count() or 1)
        t_serial, serial = best_time(lambda: run_fleet(wave, config, processes=1))
        t_pool, pooled = best_time(
            lambda: run_fleet(wave, config, processes=pool_size)
        )
        # Same seeds => the pool must reproduce the serial loss maps.
        assert serial.loss_maps() == pooled.loss_maps()

        # Scaling efficiency: throughput gain per extra process.
        serial_rate = n_receivers / t_serial
        pool_rate = n_receivers / t_pool
        speedup = t_serial / t_pool
        efficiency = speedup / pool_size

        section = {
            "n_receivers": n_receivers,
            "n_frames": n_frames,
            "audio_seconds": audio_s,
            "impairment": "awgn",
            "pool_size": pool_size,
            "serial_receivers_per_s": serial_rate,
            "pool_receivers_per_s": pool_rate,
            "pool_speedup": speedup,
            "pool_efficiency": efficiency,
            "mean_loss_rate": serial.mean_loss_rate,
            "realtime_factor_per_receiver": audio_s * serial_rate,
        }
        record("fleet", section)

        print_table(
            f"Receiver fleet ({n_receivers} receivers x {audio_s:.1f}s broadcast)",
            ["path", "receivers/s", "speedup"],
            [
                ["serial", f"{serial_rate:.1f}", "1.0x"],
                [f"pool ({pool_size})", f"{pool_rate:.1f}", f"{speedup:.2f}x"],
            ],
        )
        # Near-linear scaling up to the pool size: on a single-core host
        # the pool adds only IPC overhead, so the bar is relative.
        assert efficiency >= 0.5


class TestPopulationThroughput:
    def test_population_scaling(self, record):
        """Tier-2 statistical population: receiver-frames/s vs size.

        The paper-scale target is 1e6 receivers x 48 h of carousel; the
        floor here is 1e6 receiver-frames/s sustained, with near-linear
        cost in population size (vectorised chunks amortise fully).
        """
        from repro.radio.lossmodel import FrameLossModel
        from repro.sim.population import PopulationConfig, run_population

        model = FrameLossModel()
        hours = 48.0 if full_scale() else 8.0
        sizes = (100_000, 400_000) if full_scale() else (20_000, 80_000)
        base = PopulationConfig(n_receivers=sizes[0], hours=hours, master_seed=7)

        timed = [
            best_time(
                lambda n=n: run_population(
                    model, dataclasses.replace(base, n_receivers=n)
                )
            )
            for n in sizes
        ]
        (t_small, small), (t_large, large) = timed
        rate = large.receiver_frames / t_large

        # Chunk partitioning is invisible in the results.
        rechunked = run_population(
            model,
            dataclasses.replace(base, chunk_receivers=37_013),
        )
        assert np.array_equal(small.loss_rates, rechunked.loss_rates)
        assert np.array_equal(small.pages_decoded, rechunked.pages_decoded)

        # Near-linear scaling in population size: 4x the receivers
        # should cost ~4x, not 16x.
        scale = (t_large / t_small) / (sizes[1] / sizes[0])
        section = {
            "n_receivers": sizes[1],
            "hours": hours,
            "frames_per_receiver": large.frames_per_receiver,
            "receiver_frames": large.receiver_frames,
            "receiver_frames_per_s": rate,
            "elapsed_s": t_large,
            "scaling_ratio": scale,
            "mean_loss_rate": large.mean_loss_rate,
        }
        record("fleet_population", section, {"receiver_frames_per_s": 0.7})

        print_table(
            f"Statistical population ({hours:.0f} h carousel)",
            ["receivers", "rx-frames/s", "elapsed"],
            [
                [f"{r.n_receivers:,}", f"{r.receiver_frames / t:.2e}",
                 f"{t:.2f}s"]
                for t, r in timed
            ],
        )
        assert rate >= 1e6
        assert scale < 2.0
