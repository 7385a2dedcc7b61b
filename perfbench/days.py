"""The two seeded request days the benchmark drives.

Each day is an open loop on the *simulated* clock: requests enter at
their trace times whatever the backlog, and a request's latency counts
from that due time.  Days touch the program only through its public
API; everything they feed it (corpus seed, request trace, phone roster,
region rates) is generated here from the benchmark seed.

Constructing a day is its set-up (inputs, system, warm-up); ``run()``
is the measured part and returns a :class:`DayResult`; ``verify()``
then checks the program's outputs outside the measured time.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.client.client import ClientProfile
from repro.core.config import SystemConfig
from repro.core.system import SonicSystem
from repro.modem.modem import Modem
from repro.modem.streaming import StreamingReceiver
from repro.radio.channels import FmRadioLink
from repro.server.cache import bundle_key
from repro.server.frontend import FrontendConfig, RequestFrontend, SizeModelResolver
from repro.server.network import (
    DEFAULT_REGIONS,
    BroadcastNetwork,
    NetworkConfig,
    RegionSpec,
)
from repro.sim.geometry import Location
from repro.sim.workload import RequestTraceConfig, generate_requests
from repro.transport.bundle import BundleTransport, PageBundle
from repro.util.rng import counter_uniforms, derive_key, derive_rng
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

#: Ledger and network digests of ``national_day``, per seed (see pin.py).
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The single station every audio-day phone sits under (SonicSystem's default).
_STATION = Location(31.5204, 74.3587)


def _sub_seed(seed: int, label: str) -> int:
    return int(derive_key(seed, "perfbench", label) % 2**31)


@dataclass(frozen=True)
class AudioDaySpec:
    """One request-to-pixels day over the audio-true broadcast chain."""

    corpus_seed: int  # the site catalogue is fixed; the seed draws the day
    n_sites: int  # corpus width: 4 pages per site
    render_width: int
    max_height: int
    zipf: float
    n_requests: int
    n_phones: int
    span_s: float  # requests arrive in [0, span_s)
    horizon_s: float  # simulated audio streamed; unserved after it = not served
    rssi_dbm: float  # the FM hop's received signal strength
    warm_pages: int  # corpus head rendered into the store during set-up


@dataclass(frozen=True)
class NationalDaySpec:
    """A front-end SMS surge followed by an overloaded station network."""

    surge_requests: int
    surge_hours: float
    surge_sites: int
    surge_page_kb: int
    surge_max_backlog_kb: int
    n_stations: int
    network_hours: int
    network_rate_scale: float  # multiplies each region's default SMS rate
    network_max_backlog_kb: int


@dataclass
class DayResult:
    """What one measured day produced."""

    wall_s: float  # measured wall time, benchmark-side bookkeeping excluded
    sim_s: float  # simulated station-seconds
    attempted: int
    served: int = 0  # served and verified
    failed: int = 0  # served, but the page failed verification
    latencies_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fingerprint: str = ""  # outcome digest; equal across repeats of a seed
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# -- audio days -----------------------------------------------------------------


class AudioDay:
    """SMS request -> render/encode -> carousel -> modem audio -> FM hop
    -> streaming receive -> page assembled and decoded on the phone."""

    def __init__(self, spec: AudioDaySpec, seed: int) -> None:
        self.spec = spec
        rng = derive_rng(seed, "perfbench", "roster")
        numbers = rng.choice(10**7, size=spec.n_phones, replace=False)
        offsets = rng.uniform(-0.03, 0.03, size=(spec.n_phones, 2))
        roster = [
            ClientProfile(
                f"phone-{i}",
                Location(_STATION.lat + dlat, _STATION.lon + dlon),
                has_sms=True,
                phone_number=f"+92301{int(number):07d}",
            )
            for i, (number, (dlat, dlon)) in enumerate(zip(numbers, offsets))
        ]
        self.config = SystemConfig(
            seed=spec.corpus_seed,
            n_sites=spec.n_sites,
            render_width=spec.render_width,
            max_pixel_height=spec.max_height,
            auto_hourly_push=False,
        )
        self.system = SonicSystem(self.config, profiles=roster)
        corpus = self.system.generator.all_urls()
        trace = generate_requests(
            RequestTraceConfig(
                hours=spec.span_s / 3600.0,
                n_pages=len(corpus),
                n_requests=spec.n_requests,
                zipf_exponent=spec.zipf,
                seed=derive_key(seed, "perfbench", "trace"),
            )
        )
        who = counter_uniforms(
            derive_key(seed, "perfbench", "requester"), np.arange(trace.n_requests)
        )
        self.times = trace.times
        self.urls = [corpus[i] for i in trace.url_index.tolist()]
        self.phone_of = np.minimum(
            (who * spec.n_phones).astype(np.int64), spec.n_phones - 1
        ).tolist()
        # Earlier days rendered the popular head (corpus order is popularity
        # rank): it is read from the store, the tail is rendered on demand.
        for url in corpus[: spec.warm_pages]:
            self.system.server.render_bundle(url, 0.0)
        channel = FmRadioLink(seed=_sub_seed(seed, "fm")).stream(spec.rssi_dbm)
        self.session = self.system.open_stream(channel=channel)
        # A live station carries an idle carousel as silence.
        self.session.source.idle_fill = True
        _warm_up(spec, seed)
        stats = self.system.server.bundle_store.stats
        self._store_before = (stats.hits, stats.misses)
        self._completions: dict[str, list[bytes]] = {}
        self._served_by: dict[int, bytes] = {}
        self.lag_max_s = 0.0

    def run(self) -> DayResult:
        spec = self.spec
        system, session = self.system, self.session
        phones = system.clients
        gateway = system.gateway
        times, urls, phone_of = self.times.tolist(), self.urls, self.phone_of
        n = len(urls)
        pending: list[dict[str, list[int]]] = [{} for _ in phones]
        served_at = self._served_at = np.full(n, np.nan)
        completions, served_by = self._completions, self._served_by
        cursor = 0
        check_s = 0.0

        def advance(now: float) -> None:
            nonlocal cursor
            while cursor < n and times[cursor] <= now:
                i = cursor
                p = phone_of[i]
                phones[p].request_page(urls[i], times[i])
                pending[p].setdefault(urls[i], []).append(i)
                self.lag_max_s = max(self.lag_max_s, now - times[i])
                cursor += 1
            gateway.deliver_due(now)

        def deliver(frames, now: float) -> None:
            nonlocal check_s
            for p, phone in enumerate(phones):
                for bundle in phone.on_received_frames(frames, now):
                    t0 = time.perf_counter()
                    digest = page_digest(bundle)
                    completions.setdefault(bundle.url, []).append(digest)
                    for i in pending[p].pop(bundle.url, ()):
                        served_at[i] = now
                        served_by[i] = digest
                    check_s += time.perf_counter() - t0

        session.on_advance = advance
        session.on_frames = deliver
        t0 = time.perf_counter()
        session.run(duration_s=spec.horizon_s)
        wall = time.perf_counter() - t0 - check_s

        fp = hashlib.sha256(np.round(served_at, 6).tobytes())
        fp.update(
            json.dumps(
                sorted((u, [d.hex() for d in ds]) for u, ds in completions.items())
            ).encode()
        )
        served = ~np.isnan(served_at)
        return DayResult(
            wall_s=wall,
            sim_s=session.now,
            attempted=n,
            served=int(served.sum()),
            latencies_s=(served_at - self.times)[served],
            fingerprint=fp.hexdigest(),
        )

    def verify(self, result: DayResult) -> None:
        """Every assembled page must be the server's stored bundle for its
        (url, epoch), decoded: same url, click map and pixels."""
        gen = self.system.generator
        stored = dict(self.system.server.bundle_store.items())
        reference: dict[str, bytes | None] = {}
        for url, digests in self._completions.items():
            key = bundle_key(
                url,
                gen.effective_epoch(url, 0),
                self.config.render_width,
                self.config.max_pixel_height,
                self.config.quality,
                gen.seed,
            )
            data = stored.get(key)
            reference[url] = page_digest(PageBundle.from_bytes(data)) if data else None
            bad = sum(1 for d in digests if d != reference[url])
            if bad:
                result.problems.append(
                    f"{bad} assembled copies of {url} differ from the stored bundle"
                )
        failed = np.zeros(len(self.urls), dtype=bool)
        for i, digest in self._served_by.items():
            failed[i] = digest != reference[self.urls[i]]
        if failed.any():
            ok = ~np.isnan(self._served_at) & ~failed
            result.latencies_s = (self._served_at - self.times)[ok]
        result.failed = int(failed.sum())
        result.served -= result.failed
        if np.any(result.latencies_s < 0):
            result.problems.append("a page was readable before it was requested")

    def close(self) -> None:
        self.system.server.close()

    def layer_probes(self) -> dict[str, float]:
        """Per-layer figures read off the program's own state after a run."""
        phones = self.system.clients
        stats = self.system.server.bundle_store.stats
        hits = stats.hits - self._store_before[0]
        misses = stats.misses - self._store_before[1]
        bursts = self.system.registry.all()[0].cache.stats
        gateway = self.system.gateway
        return {
            "client.frames_lost_ratio": _ratio(
                sum(p.frames_lost for p in phones), sum(p.frames_seen for p in phones)
            ),
            "server.store_hit_ratio": _ratio(hits, hits + misses),
            "server.burst_cache_hit_ratio": _ratio(
                bursts.burst_hits, bursts.burst_hits + bursts.burst_misses
            ),
            "sms.loss_frac": _ratio(gateway.lost_count, gateway.submitted_count),
            "core.generator_lag_ms": self.lag_max_s * 1e3,
        }


def _warm_up(spec: AudioDaySpec, seed: int) -> None:
    """Run every stage of the chain once on throwaway objects, so lazy
    set-up (code tables, filter taps, FFT plans) is done before timing."""
    gen = SiteGenerator(seed=_sub_seed(seed, "warm-up"), n_sites=1)
    url = gen.all_urls()[0]
    render = PageRenderer(spec.render_width, spec.max_height).render(gen.page(url, 0))
    data = PageBundle(url, render.image, render.clickmap).to_bytes()
    PageBundle.from_bytes(data)
    modem = Modem()
    frames = BundleTransport().chunk(data)[:16]
    wave = modem.transmit_burst([f.to_bytes() for f in frames])
    link = FmRadioLink(seed=_sub_seed(seed, "warm-up")).stream(spec.rssi_dbm)
    wave = np.concatenate([link.process(wave), link.finish()])
    receiver = StreamingReceiver(modem, frames_per_burst=16)
    receiver.push(wave)
    receiver.finish()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def page_digest(bundle: PageBundle) -> bytes:
    """Content digest of a decoded bundle: url, click map, pixels."""
    h = hashlib.blake2b(digest_size=16)
    h.update(bundle.url.encode())
    h.update(bundle.clickmap.to_bytes())
    h.update(np.ascontiguousarray(bundle.image).tobytes())
    return h.digest()


# -- national day ---------------------------------------------------------------


class NationalDay:
    """10^6-request SMS surge through the front end, then an overloaded
    multi-station network day (serial).  No audio, no render."""

    def __init__(self, spec: NationalDaySpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        corpus_seed = _sub_seed(seed, "national-corpus")
        self.resolver = SizeModelResolver(
            SiteGenerator(seed=corpus_seed, n_sites=spec.surge_sites),
            max_page_bytes=spec.surge_page_kb * 1024,
        )
        self.trace = generate_requests(
            RequestTraceConfig(
                hours=spec.surge_hours,
                n_pages=len(self.resolver.urls),
                n_requests=spec.surge_requests,
                seed=derive_key(seed, "perfbench", "surge"),
            )
        )
        self.frontend = RequestFrontend(
            self.resolver,
            FrontendConfig(max_backlog_bytes=spec.surge_max_backlog_kb * 1024),
        )
        rng = derive_rng(seed, "perfbench", "region-rates")
        jitter = rng.lognormal(0.0, 0.1, size=spec.n_stations)
        regions = tuple(
            RegionSpec(
                r.name,
                r.center,
                r.radius_km,
                r.rate_per_s * spec.network_rate_scale * float(j),
                r.snr_start_db,
                r.snr_drift_db_per_hour,
            )
            for r, j in zip(DEFAULT_REGIONS[: spec.n_stations], jitter)
        )
        self.network = BroadcastNetwork(
            NetworkConfig(
                n_stations=spec.n_stations,
                hours=spec.network_hours,
                seed=corpus_seed,
                regions=regions,
                max_backlog_bytes=spec.network_max_backlog_kb * 1024,
            )
        )
        self.frontend_result = None
        self.network_result = None
        self.digests: dict[str, str] = {}

    def run(self) -> DayResult:
        spec = self.spec
        t0 = time.perf_counter()
        fe = self.frontend.run(self.trace)
        fe_digest = self.frontend.ledger.digest()
        net = self.network.run()
        net_digest = net.network_digest()
        wall = time.perf_counter() - t0
        self.frontend_result, self.network_result = fe, net
        self.digests = {"frontend": fe_digest, "network": net_digest}
        latencies = [fe.ledger_stats.latencies_s] + [
            ledger.latencies() for ledger in self.network.ledgers.values()
        ]
        n_net = sum(s.n_requests for s in net.stations)
        return DayResult(
            wall_s=wall,
            sim_s=self.frontend.now + spec.n_stations * spec.network_hours * 3600.0,
            attempted=fe.n_requests + n_net,
            served=fe.ledger_stats.n_broadcast + sum(s.n_broadcast for s in net.stations),
            latencies_s=np.concatenate(latencies),
            fingerprint=hashlib.sha256(json.dumps(self.digests).encode()).hexdigest(),
        )

    def verify(self, result: DayResult) -> None:
        """Every request in exactly one consistent life-cycle state, and
        both digests equal to the ones pinned for this seed."""
        problems = result.problems
        counts = self.frontend.ledger.reconcile()
        if sum(counts.values()) != self.trace.n_requests:
            problems.append("front-end ledger lost or duplicated requests")
        for report in self.network_result.stations:
            counts = self.network.ledgers[report.station_id].reconcile()
            if sum(counts.values()) != report.n_requests:
                problems.append(f"{report.station_id} ledger lost or duplicated requests")
            if counts.get("shed", 0) != report.n_shed:
                problems.append(f"{report.station_id} shed count disagrees with its ledger")
        pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
        pinned = pins.get(str(self.seed))
        if pinned is None:
            result.notes.append(
                f"no digests pinned for seed {self.seed}: checked invariants only"
            )
        else:
            for name, value in self.digests.items():
                if pinned.get(name) != value:
                    problems.append(f"{name} digest differs from the pinned value")
                    result.failed = result.attempted
                    result.served = 0

    def close(self) -> None:
        self.frontend.ledger.close()
        self.network.close()

    def layer_probes(self) -> dict[str, float]:
        """Per-layer figures read off the program's own state after a run."""
        stats = self.frontend_result.stats
        net = self.network_result
        return {
            "frontend.batches": stats.batches,
            "frontend.coalesce_ratio": stats.coalesce_ratio,
            "frontend.deferred": stats.deferred,
            "frontend.shed": stats.shed,
            "ledger.rows": len(self.frontend.ledger)
            + sum(len(ledger) for ledger in self.network.ledgers.values()),
            "network.station_hours": self.spec.n_stations * self.spec.network_hours,
            "network.store_hit_ratio": _ratio(
                net.store_hits, net.store_hits + net.store_misses
            ),
        }


# -- the workloads --------------------------------------------------------------
# Why each workload exists is recorded in BENCHMARK.json and README.md.  Both
# are sized so that at least ten served requests lie beyond p99, and so that
# several days fit in one run: a run reports totals over its days.


@dataclass(frozen=True)
class Workload:
    name: str
    kind: type
    spec: object

    def setup(self, seed: int):
        return self.kind(self.spec, seed)


WORKLOADS = {
    w.name: w
    for w in (
        # Phones under one FM station.  The radio hop and FM-path receive
        # dominate; the popular half of the corpus is already in the store,
        # the other half is rendered and encoded on its first request.
        Workload(
            "fm_day",
            AudioDay,
            AudioDaySpec(
                corpus_seed=2024,
                n_sites=2,
                render_width=240,
                max_height=320,
                zipf=0.9,
                n_requests=1500,
                n_phones=16,
                span_s=80.0,
                horizon_s=140.0,
                rssi_dbm=-82.0,
                warm_pages=4,
            ),
        ),
        # No audio, no render: front end, sqlite ledger, carousel
        # enqueue/drain and the demand scheduler at national scale.
        Workload(
            "national_day",
            NationalDay,
            NationalDaySpec(
                surge_requests=1_000_000,
                surge_hours=24.0,
                surge_sites=25,
                surge_page_kb=12,
                surge_max_backlog_kb=1_000,
                n_stations=12,
                network_hours=24,
                network_rate_scale=12.0,
                network_max_backlog_kb=16_000,
            ),
        ),
    )
}
