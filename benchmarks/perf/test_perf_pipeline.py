"""Throughput benchmarks for the vectorised FEC + batch frame pipeline.

Times the three layers the PR optimised — Reed-Solomon block coding, the
batched frame codec, and the end-to-end page -> waveform -> page chain —
against their scalar/per-frame reference paths, and writes the numbers to
``BENCH_pipeline.json`` at the repository root so later PRs can track the
perf trajectory.  ``repro bench --smoke`` gates the receive rate
(``end_to_end.rx_frames_per_s``) against that file.

Run explicitly (tier-1 skips timing-sensitive tests):

    python -m repro bench            # or
    python -m pytest benchmarks/perf -m perf -s
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import best_time, full_scale, print_table
from repro.core.pipeline import frames_to_waveform, waveform_to_frames
from repro.fec.convolutional import CONV_V29
from repro.fec.reed_solomon import ReedSolomon
from repro.modem.frame import FrameCodec
from repro.modem.modem import Modem
from repro.sim.receivers import FleetConfig, run_fleet
from repro.transport.framing import Frame, FrameHeader, FrameType

pytestmark = pytest.mark.perf


class TestReedSolomonThroughput:
    def test_encode_decode_speedup(self, record):
        nsym = 16
        rs = ReedSolomon(nsym)
        n_blocks = 512 if full_scale() else 128
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, (n_blocks, 255 - nsym), dtype=np.uint8)

        t_enc_vec, coded = best_time(lambda: rs.encode_blocks(data))
        t_enc_ref, _ = best_time(
            lambda: [rs.encode_ref(row.tobytes()) for row in data]
        )

        # Clean-decode path (the broadcast common case).
        t_dec_vec, _ = best_time(lambda: rs.decode_blocks(coded))
        t_dec_ref, _ = best_time(
            lambda: [rs.decode_ref(row.tobytes()) for row in coded]
        )

        # Decode with t = nsym/2 errors per block (worst accepted load).
        corrupted = coded.copy()
        for i in range(n_blocks):
            pos = rng.choice(255, size=nsym // 2, replace=False)
            corrupted[i, pos] ^= rng.integers(1, 256, nsym // 2).astype(np.uint8)
        t_err_vec, decoded = best_time(lambda: rs.decode_blocks(corrupted))
        t_err_ref, _ = best_time(
            lambda: [rs.decode_ref(row.tobytes()) for row in corrupted]
        )
        assert decoded.all_ok

        section = {
            "nsym": nsym,
            "n_blocks": n_blocks,
            "block_bytes": 255,
            "encode_blocks_per_s": n_blocks / t_enc_vec,
            "encode_ref_blocks_per_s": n_blocks / t_enc_ref,
            "encode_speedup": t_enc_ref / t_enc_vec,
            "decode_clean_blocks_per_s": n_blocks / t_dec_vec,
            "decode_clean_ref_blocks_per_s": n_blocks / t_dec_ref,
            "decode_clean_speedup": t_dec_ref / t_dec_vec,
            "decode_errors_blocks_per_s": n_blocks / t_err_vec,
            "decode_errors_ref_blocks_per_s": n_blocks / t_err_ref,
            "decode_errors_speedup": t_err_ref / t_err_vec,
        }
        record("reed_solomon", section)
        print_table(
            "RS(255) throughput (vectorised vs scalar reference)",
            ["path", "blocks/s", "speedup"],
            [
                ["encode", f"{section['encode_blocks_per_s']:.0f}",
                 f"{section['encode_speedup']:.1f}x"],
                ["decode clean", f"{section['decode_clean_blocks_per_s']:.0f}",
                 f"{section['decode_clean_speedup']:.1f}x"],
                ["decode t errs", f"{section['decode_errors_blocks_per_s']:.0f}",
                 f"{section['decode_errors_speedup']:.1f}x"],
            ],
        )
        # The PR's acceptance bar: >= 10x on 255-byte blocks.
        assert section["encode_speedup"] >= 10.0
        assert section["decode_clean_speedup"] >= 10.0


class TestViterbiThroughput:
    def test_batched_vs_scalar_decode(self, record):
        """Batched soft Viterbi vs the scalar golden reference.

        Times the two batch regimes separately: *clean* soft bits take the
        re-encode-verified algebraic fast path (the broadcast common
        case); *noisy* bits run the full batched add-compare-select
        trellis.  The scalar reference decodes the same noisy frames one
        at a time.
        """
        code = CONV_V29
        n_frames = 48 if full_scale() else 24
        n_info = 960  # one sonic-ofdm frame of info bits
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, (n_frames, n_info), dtype=np.uint8)
        coded = code.encode_batch(bits)
        clean = 1.0 - 2.0 * coded.astype(np.float64)
        noisy = clean + rng.normal(0.0, 0.6, clean.shape)

        t_clean, clean_out = best_time(
            lambda: code.decode_soft_batch(clean, n_info)
        )
        t_noisy, noisy_out = best_time(
            lambda: code.decode_soft_batch(noisy, n_info)
        )
        t_ref, ref_out = best_time(
            lambda: [code.decode_soft_ref(row, n_info) for row in noisy]
        )
        assert (clean_out == bits).all()
        assert (noisy_out == np.stack(ref_out)).all()

        section = {
            "constraint": 9,
            "n_frames": n_frames,
            "n_info_bits": n_info,
            "decode_clean_frames_per_s": n_frames / t_clean,
            "decode_noisy_frames_per_s": n_frames / t_noisy,
            "decode_ref_frames_per_s": n_frames / t_ref,
            "clean_speedup": t_ref / t_clean,
            "noisy_speedup": t_ref / t_noisy,
        }
        record("viterbi", section)
        print_table(
            "Soft Viterbi K=9 throughput (batched vs scalar reference)",
            ["path", "frames/s", "speedup"],
            [
                ["batched clean", f"{section['decode_clean_frames_per_s']:.0f}",
                 f"{section['clean_speedup']:.1f}x"],
                ["batched noisy", f"{section['decode_noisy_frames_per_s']:.0f}",
                 f"{section['noisy_speedup']:.1f}x"],
                ["scalar ref", f"{section['decode_ref_frames_per_s']:.1f}", "1.0x"],
            ],
        )
        assert section["noisy_speedup"] > 1.0


class TestFramePipelineThroughput:
    def test_batch_vs_per_frame_codec(self, record):
        codec = FrameCodec()
        n_frames = 64 if full_scale() else 32
        rng = np.random.default_rng(11)
        payloads = [
            rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
            for _ in range(n_frames)
        ]

        t_enc_batch, bits = best_time(lambda: codec.encode_batch(payloads))
        t_enc_loop, _ = best_time(lambda: [codec.encode(p) for p in payloads])
        soft = 1.0 - 2.0 * bits.astype(np.float64)
        t_dec_batch, _ = best_time(lambda: codec.decode_batch(soft))
        t_dec_loop, _ = best_time(lambda: [codec.decode(row) for row in soft])

        section = {
            "n_frames": n_frames,
            "payload_bytes": 100,
            "encode_frames_per_s": n_frames / t_enc_batch,
            "encode_loop_frames_per_s": n_frames / t_enc_loop,
            "encode_speedup": t_enc_loop / t_enc_batch,
            "decode_frames_per_s": n_frames / t_dec_batch,
            "decode_loop_frames_per_s": n_frames / t_dec_loop,
            "decode_speedup": t_dec_loop / t_dec_batch,
        }
        record("frame_codec", section)
        print_table(
            "Frame codec throughput (batch vs per-frame)",
            ["path", "frames/s", "speedup"],
            [
                ["encode", f"{section['encode_frames_per_s']:.0f}",
                 f"{section['encode_speedup']:.1f}x"],
                ["decode", f"{section['decode_frames_per_s']:.0f}",
                 f"{section['decode_speedup']:.1f}x"],
            ],
        )
        assert section["encode_speedup"] > 1.0
        assert section["decode_speedup"] > 1.0


class TestEndToEnd:
    def test_page_roundtrip_and_write_json(self, record):
        modem = Modem("sonic-ofdm")
        n_frames = 48 if full_scale() else 24
        rng = np.random.default_rng(13)
        frames = [
            Frame(
                FrameHeader(FrameType.BUNDLE_BYTES, page_id=1, seq=i, total=n_frames),
                rng.integers(0, 256, 83, dtype=np.uint8).tobytes(),
            )
            for i in range(n_frames)
        ]

        t_tx, wave = best_time(
            lambda: frames_to_waveform(frames, modem, frames_per_burst=16)
        )
        t_rx, received = best_time(
            lambda: waveform_to_frames(wave, modem, frames_per_burst=16)
        )
        delivered = sum(1 for f in received if f is not None)
        assert delivered == n_frames  # clean channel: everything decodes
        fleet = run_fleet(
            wave, FleetConfig(n_receivers=2, impairment="clean"), processes=1
        )
        assert fleet.mean_loss_rate == 0.0  # nor through the fleet harness

        payload_bits = n_frames * 100 * 8
        section = {
            "n_frames": n_frames,
            "profile": "sonic-ofdm",
            "tx_frames_per_s": n_frames / t_tx,
            "rx_frames_per_s": n_frames / t_rx,
            "tx_kbps": payload_bits / t_tx / 1000,
            "rx_kbps": payload_bits / t_rx / 1000,
            "audio_seconds": wave.size / modem.profile.ofdm.sample_rate,
            "realtime_factor_tx": (wave.size / modem.profile.ofdm.sample_rate) / t_tx,
            "realtime_factor_rx": (wave.size / modem.profile.ofdm.sample_rate) / t_rx,
        }
        record("end_to_end", section, {"rx_frames_per_s": 0.7})
        print_table(
            "End-to-end page <-> waveform throughput",
            ["direction", "frames/s", "kbps", "x realtime"],
            [
                ["page -> waveform", f"{section['tx_frames_per_s']:.0f}",
                 f"{section['tx_kbps']:.0f}", f"{section['realtime_factor_tx']:.1f}"],
                ["waveform -> page", f"{section['rx_frames_per_s']:.0f}",
                 f"{section['rx_kbps']:.0f}", f"{section['realtime_factor_rx']:.1f}"],
            ],
        )

