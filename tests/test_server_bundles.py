"""The bytes the server puts on air, pinned.

Every page request and hourly push reads its bytes through
``SonicServer.bundle_for``.  Those bytes are pinned by digest, and they
must equal what a fresh :class:`~repro.server.catalog.CatalogPipeline`
at the server's settings encodes for the same (url, hour).
"""

import hashlib

import pytest

from repro.core.config import SystemConfig
from repro.core.system import SonicSystem
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.sms.protocol import SearchRequest

_HOURS = (0, 1, 5, 30)

#: sha256 over (url, hour, bytes) for every corpus URL at ``_HOURS``.
_SERVED_DIGEST = "0eb588f5a7fde0a6c078756dba86b2f927f64221df785d471ec44178b0bda3e6"


@pytest.fixture(scope="module")
def served():
    """(system, [(url, hour, bytes)]) from one server, hours in order."""
    system = SonicSystem(SystemConfig(auto_hourly_push=False))
    out = []
    for hour in _HOURS:
        for url in system.generator.all_urls():
            out.append((url, hour, system.server.bundle_for(url, hour * 3600.0).data))
    return system, out


def test_served_bytes_digest(served):
    _, pages = served
    h = hashlib.sha256()
    for url, hour, data in pages:
        h.update(url.encode())
        h.update(hour.to_bytes(4, "big"))
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    assert h.hexdigest() == _SERVED_DIGEST


def test_served_bytes_equal_a_fresh_pipeline(served):
    system, pages = served
    cfg = system.server.config
    pipeline = CatalogPipeline(
        CatalogConfig(
            seed=system.generator.seed,
            n_sites=system.generator.n_sites,
            width=cfg.render_width,
            max_height=cfg.max_pixel_height,
            quality=cfg.quality,
            expiry_hours=cfg.client_cache_hours,
        )
    )
    for url, hour, data in pages:
        assert pipeline.encode_page(url, hour).data == data, (url, hour)


def test_search_results_page_bytes():
    """A FIND results page is rendered outside the store; its bytes are
    pinned too (recorded with the same corpus and query)."""
    system = SonicSystem(SystemConfig(auto_hourly_push=False))
    tx = system.registry.all()[0]
    request = SearchRequest("news cricket", tx.location.lat, tx.location.lon)
    system.server.handle_search(request, "+92300123", 100.0)
    (item,) = tx.carousel.items()
    assert item.url == "sonic.search/news+cricket"
    assert item.size_bytes == 2879
    assert item.digest == (
        "f97556a88c6616e069fed9caa7502ab209f987ce1d3e1c7bff1d928ebb0a51a5"
    )
