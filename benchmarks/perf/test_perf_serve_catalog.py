"""Full-fidelity catalog serving: persistent pool vs per-batch respawn.

Replays a simulated request day through :class:`RequestFrontend` with
the *real* render+encode resolver (:class:`CatalogResolver` over a
:class:`CatalogPipeline`) in two configurations:

* **baseline** — the seed path: reference renderer, a fresh
  ``multiprocessing.Pool`` spawned for every miss batch, resolves
  blocking the event loop;
* **persistent** — one warm worker pool for the whole day (in-process
  on single-CPU hosts), pipelined resolves off the event loop, and
  speculative next-hour prefetch.

Both runs, and a serial (one request at a time) reference run, must
produce bit-identical request ledgers, and every bundle they stored must
be byte-identical in the persistent store.  The acceptance floor is a
10x requests/s speedup; numbers land in the ``serve_catalog`` section
of ``BENCH_pipeline.json``.

Run explicitly:

    python -m repro bench -k serve_catalog
    REPRO_FULL=1 python -m repro bench -k serve_catalog   # 30k requests
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import full_scale, print_table
from repro.server.cache import BundleStore
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.server.frontend import CatalogResolver, FrontendConfig, RequestFrontend
from repro.sim.workload import RequestTraceConfig, generate_requests

pytestmark = pytest.mark.perf

HOURS = 24.0
N_PAGES = 24
#: Room for every page at every hour of the day, the drain past its end
#: and the prefetched next hour: no bundle is ever evicted, so the
#: store comparisons below cover every bundle a run produced.
STORE_CAPACITY = N_PAGES * (int(HOURS) + 2)


def _pipeline(reference: bool) -> CatalogPipeline:
    return CatalogPipeline(
        CatalogConfig(
            seed=42,
            n_sites=6,
            width=360,
            max_height=600,
            quality=10,
            reference=reference,
        ),
        store=BundleStore(capacity=STORE_CAPACITY),
    )


class TestServeCatalog:
    def test_persistent_pool_speedup(self, record):
        n_requests = 30_000 if full_scale() else 6_000
        trace = generate_requests(
            RequestTraceConfig(
                hours=HOURS, n_pages=N_PAGES, n_requests=n_requests, seed=42
            )
        )

        # Baseline: the seed serving path — reference renderer, a pool
        # respawned per miss batch, resolves blocking the loop.
        base_pipe = _pipeline(reference=True)
        base_fe = RequestFrontend(
            CatalogResolver(base_pipe, processes=2),
            FrontendConfig(pipelined=False, prefetch=False),
        )
        base_res = base_fe.run(trace)
        base_digest = base_fe.ledger.digest()
        base_fe.ledger.close()

        # Persistent: warm pool for the whole day, pipelined + prefetch.
        pers_pipe = _pipeline(reference=False).start()
        pers_fe = RequestFrontend(CatalogResolver(pers_pipe), FrontendConfig())
        pers_res = pers_fe.run(trace)
        pers_digest = pers_fe.ledger.digest()
        pers_pipe.close()
        pers_fe.ledger.close()

        # Serial reference: one request per dispatch, renders in-process.
        serial_pipe = _pipeline(reference=False)
        serial_fe = RequestFrontend(
            CatalogResolver(serial_pipe, processes=1), FrontendConfig()
        )
        serial_fe.run(trace, serial=True)
        serial_digest = serial_fe.ledger.digest()
        serial_fe.ledger.close()

        # Full fidelity: identical ledgers, and every bundle the
        # baseline and serial runs produced is byte-identical in the
        # persistent store (prefetch may add bundles, never change one).
        assert pers_digest == base_digest == serial_digest
        assert len(pers_pipe.store) < STORE_CAPACITY
        assert pers_pipe.store.superset_of(base_pipe.store)
        assert pers_pipe.store.superset_of(serial_pipe.store)
        assert pers_res.served_fraction == 1.0

        speedup = pers_res.requests_per_s / base_res.requests_per_s

        section = {
            "hours": HOURS,
            "n_requests": n_requests,
            "requests_per_s": pers_res.requests_per_s,
            "elapsed_s": pers_res.elapsed_s,
            "pages_rendered": pers_res.store_misses,
            "pages_rendered_per_s": pers_res.store_misses / pers_res.elapsed_s,
            "respawn_requests_per_s": base_res.requests_per_s,
            "respawn_elapsed_s": base_res.elapsed_s,
            "speedup": speedup,
            "store_hit_rate": pers_res.store_hit_rate,
            "prefetch_submitted": pers_pipe.prefetch_submitted,
            "prefetch_used": pers_pipe.prefetch_used,
            "ledger_digest": pers_digest,
        }

        print_table(
            f"Catalog serving ({n_requests:,} requests / {HOURS:.0f} h)",
            ["metric", "value"],
            [
                ["persistent", f"{pers_res.requests_per_s:,.0f} req/s"],
                ["respawn baseline", f"{base_res.requests_per_s:,.0f} req/s"],
                ["speedup", f"{speedup:.1f}x"],
                ["store hit rate", f"{100 * pers_res.store_hit_rate:.1f}%"],
                [
                    "prefetch",
                    f"{pers_pipe.prefetch_used}/{pers_pipe.prefetch_submitted} used",
                ],
            ],
        )
        record("serve_catalog", section, {"requests_per_s": 0.5})
        assert speedup >= 10.0
