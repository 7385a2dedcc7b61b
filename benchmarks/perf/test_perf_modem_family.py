"""Benchmarks for the vectorised modem-family decode stage.

Times the post-sync decode stage of each baseline modem (FSK, GMSK,
AudioQR): the preamble scan is shared by both paths and dominated by one
``np.correlate``, so the speedup that matters is scalar per-symbol
decode (``_decode_peak_ref``, the seed implementation kept as golden
reference) versus the vectorised ``decode_attempt``, each as the best
call over :data:`~benchmarks.conftest.MIN_TIME_S` of repeats.  Results
land in the ``modem_family`` section of ``BENCH_pipeline.json``;
``repro bench --smoke`` gates on the per-modem speedups.

Honest floors (1-core box, documented in DESIGN.md):

* ``fsk``    >= 2.5x — the scalar path already spends its time in one
  BLAS dgemv per symbol; batching to dgemm caps out near 3.4x.
* ``gmsk``   >= 20x — the scalar path recomputes the instantaneous-
  frequency discriminator over the whole remaining capture per peak
  (O(peaks x capture)); the batch path's canonical window makes it
  O(message), so the ratio grows with message count.
* ``audioqr`` >= 3x — the sync marker is an up+down chirp pair, which
  any "1,0" data bit pair reproduces exactly, so BOTH paths must
  CRC-reject thousands of false sync peaks; per-peak the batch matmul
  is ~4x the scalar loop.

Run explicitly (tier-1 skips timing-sensitive tests):

    python -m repro bench            # or
    python -m pytest benchmarks/perf -m perf -s
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import best_time, print_table
from repro.modem import AudioQrModem, FskModem, GmskModem

pytestmark = pytest.mark.perf

#: (modem class, payload sizes, gap, noise, speedup floor)
SPECS = {
    "fsk": (FskModem, [220] * 8, 1500, 0.01, 2.5),
    "gmsk": (GmskModem, [256] * 40, 2000, 0.01, 20.0),
    "audioqr": (AudioQrModem, [150] * 6, 1500, 0.01, 3.0),
}


def build_capture(modem, payloads, gap, noise, seed):
    rng = np.random.default_rng(seed)
    parts = [np.zeros(1200)]
    for p in payloads:
        parts.append(modem.transmit(p))
        parts.append(np.zeros(gap))
    cap = np.concatenate(parts)
    return cap + noise * rng.standard_normal(cap.size)


def decode_stage_times(modem, cap):
    """(ref_s, batch_s, ref_msgs, batch_msgs) over the pre-scanned peaks."""
    peaks = modem.sync.scan(cap)  # shared by both paths; not timed
    offset = modem.sync.template.size

    def run_ref():
        return [
            m for start, _ in peaks
            if (m := modem._decode_peak_ref(cap, start)) is not None
        ]

    def run_batch():
        out = []
        for start, _ in peaks:
            status, payload = modem.decode_attempt(cap[start + offset:], eos=True)
            if status == "done" and payload is not None:
                out.append(payload)
        return out

    ref_s, ref_msgs = best_time(run_ref)
    batch_s, batch_msgs = best_time(run_batch)
    return ref_s, batch_s, ref_msgs, batch_msgs


class TestModemFamilyDecode:
    def test_decode_stage_speedups(self, record):
        rows = []
        section: dict = {}
        rng = np.random.default_rng(67)
        for i, (name, (cls, sizes, gap, noise, floor)) in enumerate(SPECS.items()):
            modem = cls()
            payloads = [
                bytes(rng.integers(0, 256, n, dtype=np.uint8)) for n in sizes
            ]
            cap = build_capture(modem, payloads, gap, noise, seed=70 + i)
            ref_s, batch_s, ref_msgs, batch_msgs = decode_stage_times(modem, cap)
            # Bit-identical decode is the precondition for a fair race.
            assert batch_msgs == ref_msgs, name
            assert batch_msgs == payloads, name
            assert modem.receive(cap) == modem.receive_ref(cap), name
            speedup = ref_s / batch_s
            section[name] = {
                "n_messages": len(sizes),
                "ref_ms": ref_s * 1e3,
                "batch_ms": batch_s * 1e3,
                "speedup": speedup,
                "floor": floor,
            }
            rows.append([
                name, str(len(sizes)), f"{ref_s * 1e3:.1f}",
                f"{batch_s * 1e3:.1f}", f"{speedup:.1f}x", f">={floor:g}x",
            ])
        print_table(
            "Modem-family decode stage: scalar reference vs vectorised batch",
            ["modem", "msgs", "ref ms", "batch ms", "speedup", "floor"],
            rows,
        )
        record(
            "modem_family", section, {f"{name}.speedup": 0.7 for name in SPECS}
        )
        for name, row in section.items():
            assert row["speedup"] >= row["floor"], (
                f"{name} decode stage {row['speedup']:.1f}x < "
                f"{row['floor']}x floor"
            )
