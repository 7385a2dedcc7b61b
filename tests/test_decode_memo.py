"""Decode-once sharing of page images (`repro.imaging.codec.DecodeMemo`).

Every phone under one station receives the same bundle bytes, so a
``SonicSystem``'s clients decode each distinct image once and share
read-only pixels.  The memo is per system, bounded, and never
holds damaged input.
"""

import numpy as np
import pytest

from repro.client.client import ClientProfile
from repro.core.config import SystemConfig
from repro.core.system import SonicSystem
from repro.imaging.codec import CodecError, DecodeMemo, SWebpCodec
from repro.sim.geometry import Location
from repro.transport.bundle import BundleTransport, PageBundle
from repro.web.clickmap import ClickMap, ClickRegion

_HERE = Location(31.52, 74.36)


@pytest.fixture
def decode_calls(monkeypatch):
    """Count real SWebp decodes."""
    calls = []
    real = SWebpCodec.decode

    def counting(self, data):
        calls.append(len(data))
        return real(self, data)

    monkeypatch.setattr(SWebpCodec, "decode", counting)
    return calls


@pytest.fixture(scope="module")
def bundle_bytes(photo_image):
    cm = ClickMap([ClickRegion(0, 0, 5, 5, "memo.pk/a")])
    return PageBundle("memo.pk/", photo_image, cm).to_bytes()


def _system():
    profiles = [ClientProfile(f"phone-{i}", _HERE) for i in range(2)]
    config = SystemConfig(n_sites=1, auto_hourly_push=False)
    return SonicSystem(config, profiles=profiles)


def _image_bytes(data: bytes) -> bytes:
    """The SWebp image inside serialised bundle bytes."""
    return data[data.index(b"SWBP") :]


def _frames(data):
    return BundleTransport().chunk(data, page_id=3, version=1)


class TestSharedDecode:
    def test_co_located_receivers_share_read_only_pixels(
        self, bundle_bytes, decode_calls
    ):
        system = _system()
        a, b = system.clients
        frames = _frames(bundle_bytes)
        (page_a,) = a.on_frames(frames, 1.0)
        (page_b,) = b.on_frames(frames, 1.0)
        assert len(decode_calls) == 1
        assert page_a is not page_b
        assert page_a.image is page_b.image
        fresh = SWebpCodec().decode(_image_bytes(bundle_bytes))
        assert np.array_equal(page_a.image, fresh)
        with pytest.raises(ValueError):
            page_a.image[0, 0, 0] = 1

    def test_server_store_hit_decodes_nothing(self, decode_calls):
        # The server serves bytes; only receivers decode.
        system = _system()
        url = system.generator.all_urls()[0]
        system.server.bundle_for(url, 0.0)  # rendered into the store
        page = system.server.bundle_for(url, 0.0)  # store hit
        assert page.from_store
        assert decode_calls == []

    def test_fresh_system_decodes_again(self, bundle_bytes, decode_calls):
        first, second = _system(), _system()
        frames = _frames(bundle_bytes)
        (page_1,) = first.clients[0].on_frames(frames, 1.0)
        (page_2,) = second.clients[0].on_frames(frames, 1.0)
        assert len(decode_calls) == 2
        assert page_1.image is not page_2.image
        assert np.array_equal(page_1.image, page_2.image)

    def test_rebroadcast_hits_the_memo(self, bundle_bytes, decode_calls):
        client = _system().clients[0]
        frames = _frames(bundle_bytes)
        for cycle in range(3):
            assert len(client.on_frames(frames, float(cycle))) == 1
        assert len(decode_calls) == 1


class TestDecodeMemo:
    def test_corrupted_bundle_raises_and_is_not_memoised(self, bundle_bytes):
        memo = DecodeMemo()
        at = bundle_bytes.index(b"SWBP")  # the image's magic
        damaged = bundle_bytes[:at] + b"XXXX" + bundle_bytes[at + 4 :]
        with pytest.raises(CodecError):
            PageBundle.from_bytes(damaged, memo)
        assert len(memo) == 0
        with pytest.raises(CodecError):  # still raises on a repeat
            PageBundle.from_bytes(damaged, memo)
        assert PageBundle.from_bytes(bundle_bytes, memo).url == "memo.pk/"
        assert len(memo) == 1

    def test_size_stays_at_bound(self, decode_calls):
        codec = SWebpCodec()
        # Distinct widths give distinct images whatever the quantiser does.
        images = [
            np.full((8, 8 + i, 3), 100, dtype=np.uint8)
            for i in range(DecodeMemo.CAPACITY + 3)
        ]
        encoded = [codec.encode(im) for im in images]
        assert len(set(encoded)) == len(encoded)
        memo = DecodeMemo()
        for data in encoded:
            memo.decode(data)
        assert len(memo) == DecodeMemo.CAPACITY
        assert len(decode_calls) == len(encoded)
        memo.decode(encoded[-1])  # most recent: still held
        assert len(decode_calls) == len(encoded)
        memo.decode(encoded[0])  # least recent: evicted, decoded again
        assert len(decode_calls) == len(encoded) + 1
        assert len(memo) == DecodeMemo.CAPACITY

    def test_without_a_memo_pixels_stay_private_and_writable(self, bundle_bytes):
        a = PageBundle.from_bytes(bundle_bytes)
        b = PageBundle.from_bytes(bundle_bytes)
        assert a.image is not b.image
        a.image[0, 0, 0] ^= 1
