"""Pinned station outcomes and the carousel's queue order.

The two admission policies in the tree — the request front end's
(coalesce per epoch, admit while ``backlog + size <= limit``, defer
before shedding) and the network's (coalesce onto any pending request,
shed once ``backlog > limit``, never defer) — are pinned here by the
ledger digests of small runs that exercise every branch.  The carousel
is checked against a list-and-stable-sort reference model, operation by
operation, under random enqueue / bump / replace / drain / emit traces.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.server.frontend import FrontendConfig, RequestFrontend, SizeModelResolver
from repro.server.network import NetworkConfig, RegionSpec, run_network
from repro.sim.geometry import Location
from repro.sim.workload import RequestTraceConfig, generate_requests
from repro.transport.bundle import BundleTransport
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.web.sites import SiteGenerator

#: Ledger digest of the front-end run below.
FRONTEND_DIGEST = "fe599b92960f4a71440c636d1f5d7b4a0c268c4a38a292e36cb1aaf1d2682fa1"
#: ``network_digest()`` of the two-region network run below.
NETWORK_DIGEST = "956605e48cf14a5474d5a45ad9ddb8411de3e5037a6c70ec87f5129a8e075eab"


class TestFrontendOutcome:
    def test_defer_shed_replace_run_is_pinned(self):
        trace = generate_requests(
            RequestTraceConfig(hours=30.0, n_pages=20, n_requests=3_000, seed=11)
        )
        fe = RequestFrontend(
            SizeModelResolver(SiteGenerator(seed=7, n_sites=5), max_page_bytes=12 * 1024),
            FrontendConfig(rate_bps=1_000.0, max_backlog_bytes=40_000, defer_capacity=50),
        )
        stats = fe.run(trace).stats
        # The run takes every admission branch: defer, shed, replace.
        assert (stats.deferred, stats.shed, stats.replaced_pages) == (1_627, 639, 7)
        assert fe.ledger.digest() == FRONTEND_DIGEST


class TestNetworkOutcome:
    def test_degrading_overloaded_network_is_pinned(self):
        regions = (
            RegionSpec("steady", Location(31.5204, 74.3587)),
            RegionSpec(
                "fading", Location(24.8607, 67.0011), snr_drift_db_per_hour=-1.5
            ),
        )
        config = NetworkConfig(
            n_stations=2, hours=12, n_pages=40, tick_s=300.0, seed=3,
            pages_per_station=8, regions=regions, request_rate_per_s=0.05,
            max_backlog_bytes=2_000_000,
        )
        result = run_network(config)
        steady, fading = result.stations
        assert steady.n_shed > 0 and fading.n_shed > 0
        assert (steady.final_profile, fading.final_profile) == ("turbo", "robust")
        assert result.network_digest() == NETWORK_DIGEST


# -- carousel vs reference model -------------------------------------------

_FRAMES = BundleTransport().chunk(bytes(1_000), page_id=1)
_RATE_BPS = 8_000.0  # 1,000 bytes per second


class _ListCarousel:
    """Reference model: a list kept in order by a stable sort."""

    def __init__(self):
        self.items, self.now, self.completed = [], 0.0, 0

    def enqueue(self, url, size, priority, digest, n_frames):
        old = next((q for q in self.items if q.url == url), None)
        if old is not None and old.digest == digest:
            old.priority = max(old.priority, priority)
        else:
            self.items = [q for q in self.items if q.url != url]
            self.items.append(SimpleNamespace(
                url=url, size=size, priority=priority, at=self.now,
                digest=digest, sent=0, n=n_frames, frames_sent=0,
            ))
        self.items.sort(key=lambda q: (-q.priority, q.at))

    def _pop(self):
        self.completed += 1
        return self.items.pop(0).url

    def drain(self, seconds):
        budget, done = int(seconds * _RATE_BPS / 8), []
        while budget > 0 and self.items:
            q = self.items[0]
            take = min(budget, max(0, q.size - q.sent))
            q.sent, budget = q.sent + take, budget - take
            if q.sent >= q.size:
                done.append(self._pop())
        self.now += seconds
        return done

    def emit(self, k):
        out = []
        while len(out) < k and self.items:
            q = self.items[0]
            out.append(q.url)
            q.frames_sent += 1
            q.sent = min(q.size, int(q.size * q.frames_sent / q.n))
            if q.frames_sent >= q.n:
                self._pop()
        return out


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("enqueue"),
            st.integers(0, 5),  # url
            st.integers(0, 3_000),  # size
            st.sampled_from([0.0, 1.0, 2.0, 5.0]),  # few values: many ties
            st.integers(0, 2),  # version: repeat (bump) or replace
            st.integers(1, 8),  # frames
        ),
        st.tuples(st.just("drain"), st.sampled_from([0.0, 0.25, 1.0, 3.0])),
        st.tuples(st.just("emit"), st.integers(0, 6)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 2.0])),
    ),
    max_size=60,
)


class TestCarouselMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops)
    def test_order_drain_and_backlog_match_list_model(self, ops):
        car, ref = BroadcastCarousel(_RATE_BPS), _ListCarousel()
        for op in ops:
            if op[0] == "enqueue":
                _, u, size, priority, version, n = op
                digest = f"{u}|{version}"
                car.enqueue(CarouselItem(
                    f"p{u}.pk/", size, priority=priority, frames=_FRAMES[:n],
                    digest=digest,
                ))
                ref.enqueue(f"p{u}.pk/", size, priority, digest, n)
            elif op[0] == "drain":
                assert car.drain(op[1]) == ref.drain(op[1])
            elif op[0] == "emit":
                got = [url for url, _ in car.emit_frames(op[1])]
                assert got == ref.emit(op[1])
            else:
                car.advance_time(op[1])
                ref.now += op[1]
            items = car.items()
            assert [(q.url, q.priority, q.sent_bytes) for q in items] == [
                (q.url, q.priority, q.sent) for q in ref.items
            ]
            assert car.backlog_bytes() == sum(q.remaining_bytes for q in items)
            assert car.completed_pages == ref.completed
