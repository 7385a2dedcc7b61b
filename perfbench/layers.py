"""Per-layer tracing: spans around calls into each layer's public API.

The traced run installs wrappers from this file around the entry points
listed in :data:`TARGETS`, runs one day, and removes them again.  Every
wrapped call records a span (name, start, end, parent, and the page key
when its arguments carry one) in memory; the spans are written out when
the run ends.  A span's *self time* is its duration minus the time its
child spans cover, so the self times of all spans plus the root span's
own self time (benchmark glue) add up to the day's wall time.

:data:`METRICS` lists every per-layer metric, with the end-to-end metric
and workload it should move (``moves``) and where it should not
(``flat``).  End-to-end runs install nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric and workload this should move
    flat: str = ""  # where it should not move


METRICS = [
    LayerMetric("radio.fm_s", "s", "lower", "sim_rt_x, requests_per_s on fm_day", "national_day"),
    LayerMetric("radio.fm_samples", "count", "lower", "sim_rt_x, requests_per_s on fm_day", "national_day"),
    LayerMetric("imaging.decode_s", "s", "lower", "sim_rt_x, peak_rss_mb on fm_day", "national_day"),
    LayerMetric("imaging.decode_calls", "count", "lower", "sim_rt_x, peak_rss_mb on fm_day", "national_day"),
    LayerMetric("imaging.decode_unique_ratio", "ratio", "higher", "sim_rt_x, peak_rss_mb on fm_day", "national_day"),
    LayerMetric("client.assemble_s", "s", "lower", "sim_rt_x, peak_rss_mb on fm_day", "national_day"),
    LayerMetric("client.pages_completed", "count", "higher", "sim_rt_x, peak_rss_mb on fm_day", "national_day"),
    LayerMetric("client.frames_lost_ratio", "ratio", "lower", "sim_rt_x, peak_rss_mb on fm_day", "national_day"),
    LayerMetric("web.page_s", "s", "lower", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("web.render_s", "s", "lower", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("web.render_calls", "count", "lower", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("imaging.encode_s", "s", "lower", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("imaging.encode_bytes", "bytes", "lower", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("server.store_hit_ratio", "ratio", "higher", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("server.bundle_s", "s", "lower", "sim_rt_x on fm_day, a small share: four cold renders per day", "national_day"),
    LayerMetric("modem.tx_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("modem.tx_bursts", "count", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("server.burst_cache_hit_ratio", "ratio", "higher", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("modem.rx_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("modem.rx_frames", "count", "higher", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("modem.rx_ok_ratio", "ratio", "higher", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("fec.viterbi_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("fec.rs_decode_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("fec.rs_encode_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("transport.chunk_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("transport.reassemble_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("core.chunks", "count", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("core.step_self_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("core.chunk_ms_p50", "ms", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("core.chunk_ms_p99", "ms", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("core.generator_lag_ms", "ms", "lower", "page_latency_p50_s on fm_day", "national_day"),
    LayerMetric("sms.deliver_s", "s", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("sms.submit_calls", "count", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("sms.loss_frac", "ratio", "lower", "sim_rt_x on fm_day", "national_day"),
    LayerMetric("frontend.drive_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("frontend.submit_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("frontend.tick_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("frontend.batches", "count", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("frontend.coalesce_ratio", "ratio", "higher", "requests_per_s on national_day", "fm_day"),
    LayerMetric("frontend.deferred", "count", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("frontend.shed", "count", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("ledger.insert_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("ledger.mark_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("ledger.commit_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("ledger.digest_s", "s", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("ledger.rows", "count", "lower", "requests_per_s on national_day", "fm_day"),
    LayerMetric("transport.enqueue_s", "s", "lower", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("transport.enqueue_calls", "count", "lower", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("transport.drain_s", "s", "lower", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("transport.emit_s", "s", "lower", "sim_rt_x on fm_day"),
    LayerMetric("transport.peak_queue_len", "count", "lower", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("network.epoch_s", "s", "lower", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("network.station_hours", "count", "higher", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("network.store_hit_ratio", "ratio", "higher", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("scheduler.allocate_s", "s", "lower", "requests_per_s, sim_rt_x on national_day"),
    LayerMetric("trace.layer_frac", "ratio", "higher", "share of the traced day's wall time inside layer spans"),
    LayerMetric("trace.overhead_x", "x", "lower", "untraced over traced sim_rt_x of the same day"),
]


def _url_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("url")


def _item_url(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["item"]).url


def _page_url(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["page"]).url


def _page_id(args, kwargs):
    return kwargs.get("page_id", args[2] if len(args) > 2 else 0)


#: (module, class, method, span name, page-key extractor).  The span name's
#: prefix before the first dot is the layer.
TARGETS = [
    ("repro.radio.streams", "FmLinkStream", "process", "radio.fm", None),
    ("repro.radio.streams", "FmLinkStream", "finish", "radio.fm", None),
    ("repro.imaging.codec", "SWebpCodec", "decode", "imaging.decode", None),
    ("repro.imaging.codec", "SWebpCodec", "encode", "imaging.encode", None),
    ("repro.client.client", "SonicClient", "on_received_frames", "client.assemble", None),
    ("repro.web.sites", "SiteGenerator", "page", "web.page", _url_arg),
    ("repro.web.render", "PageRenderer", "render", "web.render", _page_url),
    ("repro.server.server", "SonicServer", "bundle_for", "server.bundle", _url_arg),
    ("repro.modem.modem", "Modem", "transmit_burst", "modem.tx", None),
    ("repro.modem.streaming", "StreamingReceiver", "push", "modem.rx", None),
    ("repro.modem.streaming", "StreamingReceiver", "finish", "modem.rx", None),
    ("repro.fec.convolutional", "ConvolutionalCode", "decode_soft_batch", "fec.viterbi", None),
    ("repro.fec.reed_solomon", "ReedSolomon", "decode_blocks", "fec.rs_decode", None),
    ("repro.fec.reed_solomon", "ReedSolomon", "encode_blocks", "fec.rs_encode", None),
    ("repro.transport.bundle", "BundleTransport", "chunk", "transport.chunk", _page_id),
    ("repro.transport.bundle", "BundleTransport", "reassemble", "transport.reassemble", None),
    ("repro.transport.carousel", "BroadcastCarousel", "enqueue", "transport.enqueue", _item_url),
    ("repro.transport.carousel", "BroadcastCarousel", "drain", "transport.drain", None),
    ("repro.transport.carousel", "BroadcastCarousel", "emit_frames", "transport.emit", None),
    ("repro.core.stream", "StreamSession", "step", "core.step", None),
    ("repro.sms.gateway", "SmsGateway", "deliver_due", "sms.deliver", None),
    ("repro.sms.gateway", "SmsGateway", "submit", "sms.submit", None),
    ("repro.server.frontend", "RequestFrontend", "run", "frontend.drive", None),
    ("repro.server.frontend", "RequestFrontend", "submit_batch", "frontend.submit", None),
    ("repro.server.frontend", "RequestFrontend", "advance_to_tick", "frontend.tick", None),
    ("repro.server.ledger", "RequestLedger", "insert", "ledger.insert", None),
    ("repro.server.ledger", "RequestLedger", "mark_scheduled", "ledger.mark", None),
    ("repro.server.ledger", "RequestLedger", "mark_broadcast", "ledger.mark", None),
    ("repro.server.ledger", "RequestLedger", "commit", "ledger.commit", None),
    ("repro.server.ledger", "RequestLedger", "digest", "ledger.digest", None),
    ("repro.server.ledger", "RequestLedger", "demand_counts", "ledger.digest", None),
    ("repro.server.ledger", "RequestLedger", "counts", "ledger.digest", None),
    ("repro.server.ledger", "RequestLedger", "latencies", "ledger.digest", None),
    ("repro.server.network", "BroadcastNetwork", "run", "network.epoch", None),
    ("repro.server.scheduler", "DemandScheduler", "rebalance", "scheduler.allocate", None),
    ("repro.server.scheduler", "DemandScheduler", "observe", "scheduler.allocate", None),
]


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_key = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.decoded: set[int] = set()
        self._stack: list[list] = []  # [span index, child seconds]
        self._installed: list[tuple[type, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, table: dict[str, int], values: list[str], value: str) -> int:
        i = table.get(value)
        if i is None:
            i = table[value] = len(values)
            values.append(value)
        return i

    def open(self, name: str, key=None) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._id(self._name_ids, self.names, name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_key.append(
            -1 if key is None else self._id(self._key_ids, self.keys, str(key))
        )
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        top, child = self._stack.pop()
        assert top == idx, "unbalanced spans"
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def durations(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(0)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        mask = names == nid
        return end[mask] - start[mask]

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        for module, cls_name, attr, span, key in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            after = _AFTER.get(span)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, span)
            else:
                wrapper = self._wrap(original, span, key, after)
            setattr(cls, attr, wrapper)
            self._installed.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def _wrap(self, fn, span: str, key, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(span, key(args, kwargs) if key is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, span: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item

        return wrapper

    def root(self, fn, *args):
        """Run ``fn(*args)`` under the root span ``bench.day``."""
        idx = self.open("bench.day")
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            key=np.frombuffer(self.span_key, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            keys=np.array(json.dumps(self.keys)),
        )


# -- counters taken where the work happens ------------------------------------


def _fm_samples(tracer, args, result):
    if len(args) > 1:
        tracer.count("radio.fm_samples", np.asarray(args[1]).size)


def _rx_frames(tracer, args, frames):
    tracer.count("modem.rx_frames", len(frames))
    tracer.count("modem.rx_ok", sum(1 for f in frames if f.ok))


def _decoded(tracer, args, result):
    tracer.decoded.add(hash(bytes(args[1])))


def _encoded(tracer, args, data):
    tracer.count("imaging.encode_bytes", len(data))


def _completed(tracer, args, bundles):
    tracer.count("client.pages_completed", len(bundles))


def _queue_len(tracer, args, result):
    n = args[0].queue_length()
    if n > tracer.counters.get("transport.peak_queue_len", 0):
        tracer.counters["transport.peak_queue_len"] = n


_AFTER = {
    "radio.fm": _fm_samples,
    "modem.rx": _rx_frames,
    "imaging.decode": _decoded,
    "imaging.encode": _encoded,
    "client.assemble": _completed,
    "transport.enqueue": _queue_len,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, probes: dict[str, float], traced_wall_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """Every per-layer metric of one traced day (0 where a layer is idle).

    ``probes`` carries the counters the day reads off the program's own
    state after the run (hit ratios, ledger rows, front-end stats).
    """
    s, calls, c = tracer.self_s, tracer.calls, tracer.counters
    day_s = sum(s.values())  # the root span's self time plus every layer's
    chunk_ms = tracer.durations("core.step") * 1e3
    out = {m.name: 0.0 for m in METRICS}
    out.update(probes)
    out.update({
        "radio.fm_s": s.get("radio.fm", 0.0),
        "radio.fm_samples": c.get("radio.fm_samples", 0.0),
        "imaging.decode_s": s.get("imaging.decode", 0.0),
        "imaging.decode_calls": calls.get("imaging.decode", 0),
        "imaging.decode_unique_ratio": _ratio(len(tracer.decoded), calls.get("imaging.decode", 0)),
        "client.assemble_s": s.get("client.assemble", 0.0),
        "client.pages_completed": c.get("client.pages_completed", 0.0),
        "web.page_s": s.get("web.page", 0.0),
        "web.render_s": s.get("web.render", 0.0),
        "web.render_calls": calls.get("web.render", 0),
        "imaging.encode_s": s.get("imaging.encode", 0.0),
        "imaging.encode_bytes": c.get("imaging.encode_bytes", 0.0),
        "server.bundle_s": s.get("server.bundle", 0.0),
        "modem.tx_s": s.get("modem.tx", 0.0),
        "modem.tx_bursts": calls.get("modem.tx", 0),
        "modem.rx_s": s.get("modem.rx", 0.0),
        "modem.rx_frames": c.get("modem.rx_frames", 0.0),
        "modem.rx_ok_ratio": _ratio(c.get("modem.rx_ok", 0.0), c.get("modem.rx_frames", 0.0)),
        "fec.viterbi_s": s.get("fec.viterbi", 0.0),
        "fec.rs_decode_s": s.get("fec.rs_decode", 0.0),
        "fec.rs_encode_s": s.get("fec.rs_encode", 0.0),
        "transport.chunk_s": s.get("transport.chunk", 0.0),
        "transport.reassemble_s": s.get("transport.reassemble", 0.0),
        "core.chunks": calls.get("core.step", 0),
        "core.step_self_s": s.get("core.step", 0.0),
        "core.chunk_ms_p50": float(np.percentile(chunk_ms, 50)) if chunk_ms.size else 0.0,
        "core.chunk_ms_p99": float(np.percentile(chunk_ms, 99)) if chunk_ms.size else 0.0,
        "sms.deliver_s": s.get("sms.deliver", 0.0),
        "sms.submit_calls": calls.get("sms.submit", 0),
        "frontend.drive_s": s.get("frontend.drive", 0.0),
        "frontend.submit_s": s.get("frontend.submit", 0.0),
        "frontend.tick_s": s.get("frontend.tick", 0.0),
        "ledger.insert_s": s.get("ledger.insert", 0.0),
        "ledger.mark_s": s.get("ledger.mark", 0.0),
        "ledger.commit_s": s.get("ledger.commit", 0.0),
        "ledger.digest_s": s.get("ledger.digest", 0.0),
        "transport.enqueue_s": s.get("transport.enqueue", 0.0),
        "transport.enqueue_calls": calls.get("transport.enqueue", 0),
        "transport.drain_s": s.get("transport.drain", 0.0),
        "transport.emit_s": s.get("transport.emit", 0.0),
        "transport.peak_queue_len": c.get("transport.peak_queue_len", 0.0),
        "network.epoch_s": s.get("network.epoch", 0.0),
        "scheduler.allocate_s": s.get("scheduler.allocate", 0.0),
        "trace.layer_frac": _ratio(day_s - s.get("bench.day", 0.0), day_s),
        "trace.overhead_x": _ratio(traced_wall_s, untraced_wall_s),
    })
    unknown = set(out) - {m.name for m in METRICS}
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {k: float(v) for k, v in out.items()}
