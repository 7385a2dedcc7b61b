"""Benchmarks for the chunked streaming broadcast engine.

Times the pull-based dataflow the streaming PR introduced — the
:class:`~repro.core.stream.WaveformSource` transmit side and the
:class:`~repro.modem.streaming.StreamingReceiver` — and measures its
peak working set against the whole-capture batch path.  Results land in
the ``streaming`` section of ``BENCH_pipeline.json``; ``repro bench
--smoke`` gates on ``chunks_per_s``.

Run explicitly (tier-1 skips timing-sensitive tests):

    python -m repro bench            # or
    python -m pytest benchmarks/perf -m perf -s
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from benchmarks.conftest import best_time, full_scale, print_table
from repro.core.stream import DEFAULT_CHUNK_SAMPLES, WaveformSource
from repro.modem.modem import Modem
from repro.modem.streaming import StreamingReceiver

pytestmark = pytest.mark.perf


def _payload_bursts(modem: Modem, n_bursts: int, frames_per_burst: int):
    rng = np.random.default_rng(23)
    size = modem.frame_payload_size
    return [
        [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
         for _ in range(frames_per_burst)]
        for _ in range(n_bursts)
    ]


class TestStreamingThroughput:
    def test_chunked_decode_rate_and_memory(self, record):
        modem = Modem("sonic-ofdm")
        frames_per_burst = 16
        n_bursts = 4 if full_scale() else 2
        n_frames = n_bursts * frames_per_burst
        bursts = _payload_bursts(modem, n_bursts, frames_per_burst)

        def make_source(chunk_samples=DEFAULT_CHUNK_SAMPLES):
            supply = iter(list(bursts))
            return WaveformSource(
                lambda: next(supply, None), modem, chunk_samples=chunk_samples
            )

        wave = make_source().read_all()
        batch_rx = modem.receive(wave, frames_per_burst=frames_per_burst)
        assert sum(1 for f in batch_rx if f.ok) == n_frames

        # -- receive rate at the default 100 ms chunk -------------------
        def stream_decode(chunk_samples=DEFAULT_CHUNK_SAMPLES):
            receiver = StreamingReceiver(modem, frames_per_burst=frames_per_burst)
            out = []
            for i in range(0, wave.size, chunk_samples):
                out += receiver.push(wave[i : i + chunk_samples])
            return out + receiver.finish()

        best, stream_rx = best_time(stream_decode)
        n_chunks = -(-wave.size // DEFAULT_CHUNK_SAMPLES)
        # Chunk parity: any chunking decodes exactly what the batch does.
        for rx in (stream_rx, stream_decode(7777)):
            assert [f.payload for f in rx] == [f.payload for f in batch_rx]
            assert [f.start_index for f in rx] == [f.start_index for f in batch_rx]

        # -- peak working set: batch capture vs chunked dataflow --------
        tracemalloc.start()
        src = make_source()
        full = src.read_all()
        modem.receive(full, frames_per_burst=frames_per_burst)
        _, batch_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del full

        tracemalloc.start()
        src = make_source()
        receiver = StreamingReceiver(modem, frames_per_burst=frames_per_burst)
        n_ok = 0
        for chunk in src:
            n_ok += sum(1 for f in receiver.push(chunk) if f.ok)
        n_ok += sum(1 for f in receiver.finish() if f.ok)
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert n_ok == n_frames

        audio_s = wave.size / modem.profile.ofdm.sample_rate
        section = {
            "n_frames": n_frames,
            "chunk_samples": DEFAULT_CHUNK_SAMPLES,
            "n_chunks": n_chunks,
            "chunks_per_s": n_chunks / best,
            "rx_frames_per_s": n_frames / best,
            "realtime_factor_rx": audio_s / best,
            "batch_peak_mb": batch_peak / 1e6,
            "stream_peak_mb": stream_peak / 1e6,
            "memory_ratio": batch_peak / stream_peak,
        }
        record("streaming", section, {"chunks_per_s": 0.7})
        print_table(
            "Streaming decode (100 ms chunks) vs whole-capture batch",
            ["metric", "value"],
            [
                ["chunks/s", f"{section['chunks_per_s']:.0f}"],
                ["frames/s", f"{section['rx_frames_per_s']:.0f}"],
                ["x realtime", f"{section['realtime_factor_rx']:.1f}"],
                ["batch peak RSS", f"{section['batch_peak_mb']:.1f} MB"],
                ["stream peak RSS", f"{section['stream_peak_mb']:.1f} MB"],
                ["memory ratio", f"{section['memory_ratio']:.1f}x"],
            ],
        )
        # The dataflow's point: bounded memory, no decode-rate collapse.
        assert section["memory_ratio"] > 1.0
