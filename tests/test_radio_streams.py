"""Chunk-capable channel streams (`repro.radio.streams`).

Two distinct guarantees, per stream:

* ``AcousticStream`` replays :meth:`AcousticChannel.transmit` — same
  seed, same RNG consumption order — so chunked output is bit-identical
  to the whole-array channel.
* ``FmLinkStream`` is chunk-*invariant* (any chunking of the input gives
  bit-identical output) and length-preserving, with the same threshold
  behaviour as the batch link; it is a streaming FM chain in its own
  right, not pinned to ``FmRadioLink.transmit``'s whole-array numerics.
  Its output is pinned bit for bit: ``StreamingFir`` against a per-block
  ``fftconvolve`` oracle, and a seeded capture against a sha256 digest
  (checked on the numpy/scipy/CPU combination it was recorded on).
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy
from scipy import signal

from repro.modem.modem import Modem
from repro.modem.streaming import StreamingReceiver
from repro.radio.channels import AcousticChannel, FmRadioLink
from repro.radio import streams
from repro.radio.streams import AwgnStream, StreamingFir

#: sha256 of the float64 output of ``FmRadioLink(seed=13).stream(-80.0)``
#: over the ``burst`` fixture, recorded before ``StreamingFir`` cached its
#: taps' spectrum.  The same for every chunking.
FM_BURST_SHA256 = "af06ea5d89dee0ea40f6d74ac3ab87a7fc0f7e15e54a1738c5cc6e78a090694c"

#: Where :data:`FM_BURST_SHA256` was recorded: numpy and scipy versions,
#: CPU architecture and the SIMD extensions NumPy dispatches to.  NumPy's
#: SIMD ``arctan2``/``exp`` and pocketfft may round the last bit
#: differently elsewhere, so the digest is only checked on a matching
#: host; the oracle-FIR test below checks the chain on any host.
FM_BURST_HOST = (
    "2.4.6",
    "1.17.1",
    "x86_64",
    ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
)


def _numeric_host():
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return (
        np.__version__,
        scipy.__version__,
        platform.machine(),
        tuple(simd.get("found", ())),
    )


class FftconvolveFir:
    """Oracle: the per-block ``fftconvolve`` form of :class:`StreamingFir`."""

    def __init__(self, taps):
        self._taps = np.asarray(taps, dtype=np.float64)
        m = self._taps.size
        self.block = max(4096, 4 * m)
        self.delay = (m - 1) // 2
        self._to_drop = self.delay
        self._context = np.zeros(m - 1)
        self._pending = np.zeros(0)
        self._flushed = False

    def _filter_segment(self, seg):
        ext = np.concatenate([self._context, seg])
        y = signal.fftconvolve(ext, self._taps, mode="valid")
        self._context = ext[-(self._taps.size - 1) :]
        return y

    def _emit(self, y):
        n = min(self._to_drop, y.size)
        self._to_drop -= n
        return y[n:]

    def process(self, x):
        self._pending = np.concatenate([self._pending, np.asarray(x, dtype=np.float64)])
        outs = []
        while self._pending.size >= self.block:
            outs.append(self._emit(self._filter_segment(self._pending[: self.block])))
            self._pending = self._pending[self.block :]
        return np.concatenate(outs) if outs else np.zeros(0)

    def flush(self):
        tail = np.concatenate([self._pending, np.zeros(self.delay)])
        outs = []
        while tail.size >= self.block:
            outs.append(self._emit(self._filter_segment(tail[: self.block])))
            tail = tail[self.block :]
        if tail.size:
            outs.append(self._emit(self._filter_segment(tail)))
        return np.concatenate(outs) if outs else np.zeros(0)


def _run_chunked(stream, wave, sizes):
    out = []
    i = 0
    k = 0
    while i < wave.size:
        step = int(sizes[k % len(sizes)])
        k += 1
        out.append(stream.process(wave[i : i + step]))
        i += step
    # Channel streams end with finish(); bare filters with flush().
    tail = stream.finish() if hasattr(stream, "finish") else stream.flush()
    if tail.size:
        out.append(tail)
    return np.concatenate(out)


@pytest.fixture(scope="module")
def burst():
    modem = Modem("sonic-ofdm")
    rng = np.random.default_rng(11)
    payloads = [
        rng.integers(0, 256, modem.frame_payload_size, dtype=np.uint8).tobytes()
        for _ in range(4)
    ]
    return modem, modem.transmit_burst(payloads), payloads


class TestAwgnStream:
    def test_chunked_equals_whole_draw(self):
        """Sequential normal draws equal one whole-array draw."""
        x = np.linspace(-1, 1, 10_000)
        whole = x + np.random.default_rng(5).normal(0.0, 0.1, x.size)
        stream = AwgnStream(np.random.default_rng(5), 0.1)
        assert np.array_equal(_run_chunked(stream, x, [997]), whole)

    def test_finish_is_empty(self):
        stream = AwgnStream(np.random.default_rng(0), 0.1)
        stream.process(np.zeros(10))
        assert stream.finish().size == 0


class TestAcousticStream:
    @pytest.mark.parametrize("distance_m", [0.0, 0.5, 1.3])
    def test_bit_identical_to_batch_channel(self, burst, distance_m):
        _, wave, _ = burst
        power = float(np.mean(wave**2))
        batch = AcousticChannel(seed=77).transmit(wave, distance_m)
        for sizes in ([997], [4800], [wave.size], [1, 48_000]):
            stream = AcousticChannel(seed=77).stream(
                distance_m, wave.size, power
            )
            assert np.array_equal(_run_chunked(stream, wave, sizes), batch)

    def test_rng_call_slots_advance(self, burst):
        """Opening a stream consumes one channel call slot, like transmit."""
        _, wave, _ = burst
        power = float(np.mean(wave**2))
        ch_batch = AcousticChannel(seed=3)
        first_b = ch_batch.transmit(wave, 0.5)
        second_b = ch_batch.transmit(wave, 0.5)
        ch_stream = AcousticChannel(seed=3)
        first_s = _run_chunked(ch_stream.stream(0.5, wave.size, power), wave, [4800])
        second_s = _run_chunked(ch_stream.stream(0.5, wave.size, power), wave, [4800])
        assert np.array_equal(first_s, first_b)
        assert np.array_equal(second_s, second_b)
        assert not np.array_equal(first_b, second_b)  # slots differ

    def test_overrun_raises(self, burst):
        _, wave, _ = burst
        stream = AcousticChannel(seed=1).stream(0.5, 1000, 1.0)
        stream.process(wave[:1000])
        with pytest.raises(ValueError):
            stream.process(wave[:1])


class TestStreamingFir:
    def test_chunk_invariant_and_matches_block_anchored_filter(self):
        rng = np.random.default_rng(9)
        taps = rng.normal(size=127)
        x = rng.normal(size=50_000)
        outs = []
        for sizes in ([x.size], [997], [1, 17, 4800]):
            fir = StreamingFir(taps)
            outs.append(_run_chunked(fir, x, sizes))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
        # Group delay compensated: output aligns with the input length.
        assert outs[0].size == x.size

    @pytest.mark.parametrize("n_taps", [127, 511])
    def test_bit_identical_to_fftconvolve_oracle(self, n_taps):
        rng = np.random.default_rng(n_taps)
        taps = rng.normal(size=n_taps)
        # Not a whole number of blocks, so the flush tail is a short block.
        x = rng.normal(size=50_001)
        for sizes in ([x.size], [997], [1, 17, 4800]):
            got = _run_chunked(StreamingFir(taps), x, sizes)
            want = _run_chunked(FftconvolveFir(taps), x, sizes)
            assert np.array_equal(got, want)
            assert got.size == x.size

    def test_delay_compensation_centres_impulse(self):
        taps = np.zeros(31)
        taps[15] = 1.0  # pure delay equal to the compensation
        x = np.zeros(500)
        x[100] = 1.0
        fir = StreamingFir(taps)
        y = _run_chunked(fir, x, [64])
        assert y.size == x.size
        assert np.argmax(np.abs(y)) == 100


class TestFmLinkStream:
    def test_chunk_invariance(self, burst):
        _, wave, _ = burst
        peak = float(np.max(np.abs(wave)))
        outs = []
        for sizes in ([wave.size], [4800], [997], [17]):
            stream = FmRadioLink(seed=13).stream(-70.0, peak_estimate=peak)
            outs.append(_run_chunked(stream, wave, sizes))
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert outs[0].size == wave.size

    def test_pinned_digest(self, burst):
        host = _numeric_host()
        if host != FM_BURST_HOST:
            pytest.skip(
                f"digest recorded on numpy/scipy/arch/SIMD {FM_BURST_HOST}, "
                f"this host is {host}"
            )
        _, wave, _ = burst
        peak = float(np.max(np.abs(wave)))
        for sizes in ([4800], [997]):
            stream = FmRadioLink(seed=13).stream(-80.0, peak_estimate=peak)
            out = _run_chunked(stream, wave, sizes)
            assert hashlib.sha256(out.tobytes()).hexdigest() == FM_BURST_SHA256

    def test_bit_identical_with_fftconvolve_filters(self, burst, monkeypatch):
        """The whole chain, rebuilt on the oracle FIR, gives the same bits."""
        _, wave, _ = burst
        peak = float(np.max(np.abs(wave)))
        fast = _run_chunked(FmRadioLink(seed=13).stream(-80.0, peak), wave, [4800])
        monkeypatch.setattr(streams, "StreamingFir", FftconvolveFir)
        slow = _run_chunked(FmRadioLink(seed=13).stream(-80.0, peak), wave, [4800])
        assert np.array_equal(fast, slow)

    def test_decodes_at_good_rssi_not_at_bad(self, burst):
        modem, wave, payloads = burst
        peak = float(np.max(np.abs(wave)))

        def decode(rssi):
            stream = FmRadioLink(seed=29).stream(rssi, peak_estimate=peak)
            rx = StreamingReceiver(modem, frames_per_burst=len(payloads))
            frames = []
            for i in range(0, wave.size, 4800):
                frames += rx.push(stream.process(wave[i : i + 4800]))
            tail = stream.finish()
            if tail.size:
                frames += rx.push(tail)
            return frames + rx.finish()

        good = decode(-70.0)
        assert [f.payload for f in good if f.ok] == payloads
        bad = decode(-95.0)  # beyond the FM threshold cliff
        assert sum(1 for f in bad if f.ok) < len(payloads)

    def test_noise_stream_ids_differ_per_open(self, burst):
        """Two streams from one link draw independent noise."""
        _, wave, _ = burst
        link = FmRadioLink(seed=41)
        peak = float(np.max(np.abs(wave)))
        a = _run_chunked(link.stream(-80.0, peak), wave, [4800])
        b = _run_chunked(link.stream(-80.0, peak), wave, [4800])
        assert not np.array_equal(a, b)
