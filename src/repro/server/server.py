"""The SONIC server: SMS requests in, FM broadcasts out (Section 3.1).

Workflow for a request: parse the SMS, locate a transmitter covering the
user, produce the page bundle (store first, render otherwise), queue it
on that transmitter's carousel ahead of the popularity pushes, and reply
with an ACK carrying the airtime estimate.  An hourly tick re-renders
changed popular pages and queues them as preemptive pushes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.server.cache import BundleStore
from repro.server.catalog import CatalogConfig, CatalogPage, CatalogPipeline
from repro.server.scheduler import (
    AdaptiveProfileSelector,
    PopularityScheduler,
    SchedulerConfig,
)
from repro.server.transmitters import (
    Transmitter,
    TransmitterRegistry,
    payload_digest,
)
from repro.sim.geometry import Location
from repro.sms.gateway import SmsGateway
from repro.sms.message import SmsMessage
from repro.sms.protocol import (
    LinkReport,
    PageRequest,
    ProfileAdvice,
    RequestAck,
    RequestError,
    SearchRequest,
    parse_uplink,
)
from repro.transport.bundle import BundleTransport
from repro.transport.carousel import CarouselItem
from repro.web.dom import Heading, LinkList, Page, Paragraph
from repro.web.sites import SiteGenerator

__all__ = ["ServerConfig", "SonicServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Server behaviour knobs."""

    sms_number: str = "+92300766421"
    render_width: int = 1080
    max_pixel_height: int | None = 10_000
    quality: int = 10
    client_cache_hours: float = 24.0
    unsupported_markers: tuple[str, ...] = ("login", "account", "bank", "signin")


@dataclass
class ServerStats:
    """Counters for the evaluation harness."""

    requests: int = 0
    renders: int = 0
    store_hits: int = 0  # encoded bundles reused from the BundleStore
    rejected: int = 0
    pushes: int = 0
    searches: int = 0
    link_reports: int = 0
    profile_switches: int = 0


class SonicServer:
    """Central SONIC service tying web, cache, SMS, and transmitters."""

    def __init__(
        self,
        generator: SiteGenerator,
        transmitters: TransmitterRegistry,
        gateway: SmsGateway,
        config: ServerConfig = ServerConfig(),
        scheduler_config: SchedulerConfig = SchedulerConfig(),
        bundle_store: BundleStore | None = None,
        profile_selector: AdaptiveProfileSelector | None = None,
    ) -> None:
        self.generator = generator
        self.transmitters = transmitters
        self.gateway = gateway
        self.config = config
        self.bundle_store = bundle_store if bundle_store is not None else BundleStore()
        self.scheduler = PopularityScheduler(generator, scheduler_config)
        self._transport = BundleTransport()
        self._page_ids: dict[str, int] = {}
        self._catalog_pipeline: CatalogPipeline | None = None  # lazy
        self.profile_selector = profile_selector
        self._advised_profile: str | None = None
        self.stats = ServerStats()
        gateway.register(config.sms_number, self._on_sms)

    # -- identifiers ------------------------------------------------------------

    def page_id(self, url: str) -> int:
        """Stable 16-bit id for a URL (frame headers carry it)."""
        if url not in self._page_ids:
            self._page_ids[url] = len(self._page_ids) % 65_536
        return self._page_ids[url]

    # -- page bytes ------------------------------------------------------------

    def bundle_for(self, url: str, now: float) -> CatalogPage:
        """The page's encoded bundle at simulation time ``now``.

        Requests, hourly pushes and :meth:`push_catalog` all read and
        fill the one :class:`~repro.server.cache.BundleStore` through
        :meth:`~repro.server.catalog.CatalogPipeline.encode_page`: an
        hour, request, or prior run that already encoded this (url,
        epoch) at the same render settings hands back the identical
        bytes; a miss renders and encodes once.
        """
        page = self.catalog_pipeline().encode_page(url, int(now // 3600))
        if page.from_store:
            self.stats.store_hits += 1
        else:
            self.stats.renders += 1
        return page

    # perfbench calls render_bundle and traces bundle_for via the class __dict__.
    render_bundle = bundle_for

    # -- broadcasting ------------------------------------------------------------

    def enqueue_broadcast(
        self,
        tx: Transmitter,
        url: str,
        data: bytes,
        priority: float,
        version: int = 0,
    ) -> None:
        """Queue ``data`` on a transmitter's carousel.

        Frame chunking goes through the transmitter's broadcast encode
        cache, so a repeat broadcast of byte-identical content (the
        hourly carousel case, or two users requesting the same page)
        reuses the previously chunked frames instead of re-encoding them.
        """
        digest = payload_digest(data)
        frames = tx.cache.frames(
            data,
            page_id=self.page_id(url),
            version=version,
            transport=self._transport,
            digest=digest,
        )
        tx.carousel.enqueue(
            CarouselItem(
                url, len(data), priority=priority, frames=frames, digest=digest
            )
        )

    # -- SMS handling ------------------------------------------------------------

    def _reply(self, to: str, text: str, now: float) -> None:
        self.gateway.submit(
            SmsMessage(self.config.sms_number, to, text, submitted_at=now), now
        )

    def _on_sms(self, message: SmsMessage, now: float) -> None:
        try:
            request = parse_uplink(message.text)
        except ValueError:
            self.stats.rejected += 1
            self._reply(message.sender, RequestError("-", "malformed").to_text(), now)
            return
        if isinstance(request, PageRequest):
            self.handle_page_request(request, message.sender, now)
        elif isinstance(request, LinkReport):
            self.handle_link_report(request, message.sender, now)
        else:
            self.handle_search(request, message.sender, now)

    def handle_link_report(
        self, report: LinkReport, sender: str, now: float
    ) -> None:
        """RPT: fold receiver feedback in, advise the best burst profile.

        The selector refits the reported profile's loss curve from the
        accumulated samples and the reply names the fastest profile
        predicted to survive the reported SNR — so as a client's channel
        degrades, successive replies walk down the rate ladder.
        """
        self.stats.link_reports += 1
        if self.profile_selector is None:
            self._reply(
                sender, RequestError(report.profile, "no-adaptation").to_text(), now
            )
            return
        self.profile_selector.observe(report)
        choice = self.profile_selector.select(report.snr_db)
        if choice != self._advised_profile:
            self.stats.profile_switches += 1
            self._advised_profile = choice
        self._reply(sender, ProfileAdvice(choice).to_text(), now)

    def handle_page_request(
        self, request: PageRequest, sender: str, now: float
    ) -> None:
        """The paper's core request flow: validate, render, queue, ACK."""
        self.handle_page_requests_batch([(request, sender)], now)

    def handle_page_requests_batch(
        self, requests: list[tuple[PageRequest, str]], now: float
    ) -> list[str]:
        """Batched request flow: N requests cost one render per unique page.

        The front end (:mod:`repro.server.frontend`) hands over whole
        dispatch batches; requests are validated and routed individually,
        but rendering and carousel queuing happen once per unique
        ``(transmitter, url)`` — so a burst of users asking for the same
        hot page costs a single :meth:`bundle_for` (itself usually a
        :class:`~repro.server.cache.BundleStore` hit).  Replies (ACK with
        airtime estimate, or ERR) go out through the gateway, and the reply
        texts are also returned in order.
        """
        self.stats.requests += len(requests)
        routed: list[tuple[PageRequest, str, Transmitter | None, str | None]] = []
        for request, sender in requests:
            url = request.url
            if any(marker in url for marker in self.config.unsupported_markers):
                routed.append((request, sender, None, "unsupported-auth"))
                continue
            tx = self.transmitters.covering(Location(request.lat, request.lon))
            if tx is None:
                routed.append((request, sender, None, "no-coverage"))
                continue
            routed.append((request, sender, tx, None))

        # One bundle per unique URL, one enqueue per unique (tx, url).
        bundles: dict[str, CatalogPage | None] = {}
        queued: set[tuple[int, str]] = set()
        replies: list[str] = []
        for request, sender, tx, error in routed:
            url = request.url
            if error is None:
                if url not in bundles:
                    try:
                        bundles[url] = self.bundle_for(url, now)
                    except KeyError:
                        bundles[url] = None
                page = bundles[url]
                if page is None:
                    error = "unknown-site"
                else:
                    assert tx is not None
                    if (id(tx), url) not in queued:
                        self.enqueue_broadcast(
                            tx,
                            url,
                            page.data,
                            priority=self.scheduler.config.request_priority,
                            version=page.epoch,
                        )
                        queued.add((id(tx), url))
                    eta = tx.carousel.eta_seconds(url) or 0.0
                    replies.append(RequestAck(url, eta).to_text())
                    self._reply(sender, replies[-1], now)
                    continue
            self.stats.rejected += 1
            replies.append(RequestError(url, error).to_text())
            self._reply(sender, replies[-1], now)
        return replies

    def handle_search(self, request: SearchRequest, sender: str, now: float) -> None:
        """FIND: build a results page over the corpus and broadcast it."""
        self.stats.searches += 1
        where = Location(request.lat, request.lon)
        tx = self.transmitters.covering(where)
        if tx is None:
            self.stats.rejected += 1
            self._reply(sender, RequestError("search", "no-coverage").to_text(), now)
            return
        url = f"sonic.search/{'+'.join(request.query.lower().split())}"
        results = self._search_corpus(request.query, now)
        page = Page(
            url=url,
            title=f"Search: {request.query}",
            elements=[
                Heading(f"Results for '{request.query}'", level=1),
                Paragraph(f"{len(results)} matching pages in the SONIC catalog."),
                LinkList(tuple(results[:10])),
            ],
        )
        data = self.catalog_pipeline().encode_dom(page)
        self.enqueue_broadcast(
            tx, url, data, priority=self.scheduler.config.request_priority
        )
        eta = tx.carousel.eta_seconds(url) or 0.0
        self._reply(sender, RequestAck(url, eta).to_text(), now)

    def _search_corpus(self, query: str, now: float) -> list[tuple[str, str]]:
        """Keyword search over page headlines (label, href)."""
        hour = int(now // 3600)
        terms = set(query.lower().split())
        hits: list[tuple[int, str, str]] = []
        for url in self.generator.all_urls():
            page = self.generator.page(url, hour)
            for el in page.elements:
                if isinstance(el, Heading):
                    words = set(el.text.lower().split())
                    score = len(terms & words)
                    if score:
                        hits.append((score, el.text, url))
                    break  # first heading is the headline
        hits.sort(key=lambda h: -h[0])
        return [(text, url) for _, text, url in hits]

    # -- catalog announcements ------------------------------------------------

    def broadcast_catalog(self, tx: Transmitter, now: float) -> int:
        """Announce the transmitter's queue as METADATA frames.

        Lets downlink-only users see what is coming and when (the
        client app's "upcoming" view).  Returns the entry count.
        """
        from repro.transport.metadata import CatalogAnnouncement, CatalogEntryInfo

        hour = int(now // 3600)
        entries = []
        for item in tx.carousel.items():
            version = (
                item.frames[0].header.col if item.frames else
                self.generator.effective_epoch(item.url, hour)
                if self._known_url(item.url)
                else 0
            )
            entries.append(
                CatalogEntryInfo(
                    url=item.url,
                    page_id=self.page_id(item.url),
                    version=version,
                    size_bytes=item.size_bytes,
                    eta_seconds=tx.carousel.eta_seconds(item.url) or 0.0,
                )
            )
        announcement = CatalogAnnouncement(tx.station_id, entries)
        frames = announcement.to_frames()
        tx.carousel.enqueue(
            CarouselItem(
                f"sonic.catalog/{tx.station_id}",
                len(frames) * 100,
                priority=self.scheduler.config.request_priority * 2,
                frames=frames,
            )
        )
        return len(entries)

    def catalog_pipeline(
        self, persistent: bool = False, processes: int | None = None
    ) -> CatalogPipeline:
        """The server's shared :class:`~repro.server.catalog.CatalogPipeline`.

        Built once (lazily) over this server's generator and bundle
        store, so every request, hourly push and ``push_catalog`` call —
        and any persistent worker pool attached with ``persistent=True``
        — is reused across hours instead of respawned per call.  Call
        :meth:`close` when done if a pool was started.
        """
        if self._catalog_pipeline is None:
            self._catalog_pipeline = CatalogPipeline(
                CatalogConfig(
                    seed=self.generator.seed,
                    n_sites=self.generator.n_sites,
                    width=self.config.render_width,
                    max_height=self.config.max_pixel_height,
                    quality=self.config.quality,
                    expiry_hours=self.config.client_cache_hours,
                ),
                store=self.bundle_store,
                generator=self.generator,
            )
        if persistent and not self._catalog_pipeline.persistent:
            self._catalog_pipeline.start(processes)
        return self._catalog_pipeline

    def close(self) -> None:
        """Release the catalog pipeline's worker pool, if one is running."""
        if self._catalog_pipeline is not None:
            self._catalog_pipeline.close()

    def push_catalog(
        self,
        tx: Transmitter,
        now: float,
        urls: list[str] | None = None,
        processes: int | None = None,
        persistent: bool = False,
    ):
        """Encode the catalog through the pooled pipeline and broadcast it.

        All (or the given) corpus pages are rendered/encoded via the
        shared :meth:`catalog_pipeline` backed by this server's
        :attr:`bundle_store` — so a warm store (a later hour, a rerun)
        skips re-encoding entirely — then queued on ``tx`` at their
        popularity priority, followed by a catalog announcement.
        ``persistent=True`` attaches (and keeps) the persistent worker
        pool across calls.  Returns the
        :class:`~repro.server.catalog.CatalogResult`.
        """
        hour = int(now // 3600)
        pipeline = self.catalog_pipeline(persistent=persistent, processes=processes)
        result = pipeline.encode_catalog(urls=urls, hour=hour, processes=processes)
        for page in result.pages:
            self.enqueue_broadcast(
                tx,
                page.url,
                page.data,
                priority=self.scheduler.page_priority(page.url, hour),
                version=page.epoch,
            )
        self.stats.pushes += result.n_pages
        self.broadcast_catalog(tx, now)
        return result

    def _known_url(self, url: str) -> bool:
        try:
            self.generator.website(url.partition("/")[0])
            return True
        except KeyError:
            return False

    # -- hourly push ------------------------------------------------------------

    def hourly_push(self, now: float) -> int:
        """Render changed popular pages, queue on every transmitter."""
        hour = int(now // 3600)
        pushed = 0
        transmitters = self.transmitters.all()
        for url, priority in self.scheduler.pages_to_push(hour):
            page = self.bundle_for(url, now)
            for tx in transmitters:
                self.enqueue_broadcast(
                    tx, url, page.data, priority=priority, version=page.epoch
                )
            pushed += 1
        self.stats.pushes += pushed
        return pushed
