"""Per-layer metrics from the spans and events of one traced run.

Every per-layer metric is listed in :data:`PER_LAYER` with its unit and
the end-to-end metric (and workload) it should move; the traced run
prints each one next to that pairing.  Time metrics are self time per
timed request (``ms``); a request is one HTTP request on the service
workloads and one ``BatchEngine.compress`` call on ``cameo_fleet``.
"""

from __future__ import annotations

from collections import defaultdict

from .spans import exclusive_times, self_times

__all__ = ["PER_LAYER", "LAYERS", "per_layer_metrics", "COVERAGE_TOLERANCE"]

#: Layers in the order the request crosses them; ``client`` is the
#: benchmark's side (HTTP transport, or the fleet's own loop).
LAYERS = ("client", "service", "streaming", "storage", "engine", "codecs",
          "core", "kernels")

#: Coverage must hold to this share of the measured wall time.
COVERAGE_TOLERANCE = 0.05

_P50 = "latency_p50_ms"
_P99 = "latency_p99_ms"
_TPUT = "throughput_pts_s"
_GROW = "latency_growth"
_REC = "recovery_s"
_FLEET, _HTTP, _INGEST = "cameo_fleet", "compress_http", "ingest_durable"

#: name -> (unit, [(end-to-end metric, workload), ...]).
PER_LAYER: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "service.handle_ms": ("ms", [(_P50, _HTTP)]),
    "service.transport_ms": ("ms", [(_P50, _HTTP)]),
    "service.execute_ms": ("ms", [(_P50, _HTTP)]),
    "service.queue_wait_ms": ("ms", [(_P99, _HTTP), (_P99, _INGEST)]),
    "service.spool_lock_wait_ms": ("ms", [(_TPUT, _INGEST), (_P99, _INGEST)]),
    "service.shed": ("count", [("failed", "all")]),
    "streaming.add_ms": ("ms", [(_P50, _INGEST), (_GROW, _INGEST)]),
    "streaming.idempotency_ms": ("ms", [(_P50, _INGEST), (_GROW, _INGEST)]),
    "streaming.drain_ms": ("ms", [(_P99, _INGEST)]),
    "streaming.drains": ("count", [(_P99, _INGEST)]),
    "streaming.duplicates": ("count", [("failed", _INGEST)]),
    "streaming.replay_ms": ("ms", [(_REC, _INGEST)]),
    "storage.append_ms": ("ms", [(_P50, _INGEST), (_TPUT, _INGEST)]),
    "storage.wal_append_ms": ("ms", [(_P50, _INGEST), (_TPUT, _INGEST)]),
    "storage.crc_ms": ("ms", [(_P50, _INGEST), (_TPUT, _INGEST)]),
    "storage.crc_bytes": ("bytes", [(_P50, _INGEST), (_TPUT, _INGEST)]),
    "storage.fsyncs_per_req": ("count", [(_P50, _INGEST), (_TPUT, _INGEST)]),
    "storage.fsync_ms": ("ms", [(_P50, _INGEST), (_TPUT, _INGEST)]),
    "storage.manifest_swaps_per_req": ("count", [(_GROW, _INGEST)]),
    "storage.manifest_bytes_per_req": ("bytes", [(_GROW, _INGEST)]),
    "storage.write_amp": ("ratio", [(_TPUT, _INGEST)]),
    "storage.open_ms": ("ms", [(_REC, _INGEST)]),
    "storage.wal_replay_records": ("count", [(_REC, _INGEST)]),
    "engine.compress_ms": ("ms", [(_P50, _HTTP)]),
    "engine.fastpath_share": ("ratio", [(_TPUT, _FLEET), (_TPUT, _HTTP)]),
    "engine.retries": ("count", [("failed", "all")]),
    "engine.timeouts": ("count", [("failed", "all")]),
    "codecs.encode_ms.cameo": ("ms", [(_TPUT, _FLEET)]),
    "codecs.encode_ms.gorilla": ("ms", [(_P50, _HTTP), (_P99, _INGEST)]),
    "codecs.decode_ms": ("ms", [("verify step", _FLEET)]),
    "core.compress_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.initial_impacts_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.reheap_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.apply_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.preview_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.heap_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.loop_self_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.lockstep_ms": ("ms", [(_TPUT, _FLEET)]),
    "core.accept_ratio": ("ratio", [(_TPUT, _FLEET)]),
    "core.preview_reuse_share": ("ratio", [(_TPUT, _FLEET)]),
    "kernels.pack_bits_ms": ("ms", [(_P50, _HTTP), (_P99, _INGEST)]),
}

#: time metric -> span names whose self time it sums.
_SELF_TIME = {
    "service.handle_ms": ("service.handle",),
    "service.transport_ms": ("client.request",),
    "service.execute_ms": ("service.execute",),
    "service.queue_wait_ms": ("service.queue_wait",),
    "service.spool_lock_wait_ms": ("service.spool_lock_wait",),
    "streaming.add_ms": ("streaming.add",),
    "streaming.idempotency_ms": ("streaming.idempotency",),
    "streaming.drain_ms": ("streaming.drain",),
    "storage.append_ms": ("storage.append",),
    "storage.wal_append_ms": ("storage.wal_append",),
    "storage.crc_ms": ("storage.crc",),
    "storage.fsync_ms": ("storage.fsync",),
    "engine.compress_ms": ("engine.compress",),
    "codecs.encode_ms.cameo": ("codecs.encode.cameo",),
    "codecs.encode_ms.gorilla": ("codecs.encode.gorilla",),
    "core.compress_ms": ("core.compress",),
    "core.initial_impacts_ms": ("core.initial_impacts",),
    "core.reheap_ms": ("core.reheap",),
    "core.apply_ms": ("core.apply",),
    "core.preview_ms": ("core.preview",),
    "core.heap_ms": ("core.heap",),
    "core.loop_self_ms": ("core.loop",),
    "core.lockstep_ms": ("core.lockstep",),
    "kernels.pack_bits_ms": ("kernels.pack_bits",),
}


def merge_dumps(dumps) -> tuple[list, list]:
    """Spans ``(id, parent, request, name, start, end)`` and events
    ``(request, name, value)`` of several tracers, names resolved."""
    spans, events = [], []
    for dump in dumps:
        names = dump["names"]
        spans.extend((s[0], s[1], s[2], names[s[3]], s[4], s[5])
                     for s in dump["spans"])
        events.extend((e[0], names[e[1]], e[2]) for e in dump["events"])
    return spans, events


def per_layer_metrics(dumps, *, requests, wall_ns: int, clients: int,
                      idle_ns: int, user_bytes: int = 0,
                      recovery_dumps=()) -> tuple[dict, dict]:
    """Per-layer metrics of the timed requests, plus a coverage report.

    ``requests`` are the ids of the timed requests; server spans that
    belong to one and have no parent in their own process hang off the
    client's ``client.request`` span of the same id.  ``idle_ns`` is the
    clients' total time between requests (the named gap).  Recovery
    metrics come from ``recovery_dumps`` (servers restarted on a crashed
    store), per restart.
    """
    requests = set(requests)
    count = max(len(requests), 1)
    spans, events = merge_dumps(dumps)
    spans = [span for span in spans if span[2] in requests]
    roots = {span[2]: span[0] for span in spans
             if span[3] == "client.request"}
    linked = []
    for span_id, parent, request, name, start, end in spans:
        if not parent and name != "client.request":
            parent = roots.get(request, 0)
        linked.append((span_id, parent, request, name, start, end))
    selfs = self_times((s[0], s[1], s[4], s[5]) for s in linked)

    by_name: dict[str, int] = defaultdict(int)
    for span_id, _parent, _request, name, _start, _end in linked:
        by_name[name] += selfs[span_id]
    # Layer shares split moments that parallel spans of one request share,
    # so they add up to the wall time; self times may overlap instead.
    by_request = defaultdict(list)
    for span in linked:
        by_request[span[2]].append(span)
    by_layer: dict[str, float] = defaultdict(float)
    for request_spans in by_request.values():
        charged = exclusive_times((s[0], s[1], s[4], s[5])
                                  for s in request_spans)
        for span_id, _parent, _request, name, _start, _end in request_spans:
            by_layer[name.split(".", 1)[0]] += charged[span_id]
    totals: dict[str, int] = defaultdict(int)
    for request, name, value in events:
        if request in requests:
            totals[name] += value

    metrics = {}
    for metric, names in _SELF_TIME.items():
        metrics[metric] = sum(by_name.get(name, 0) for name in names) \
            / 1e6 / count
    metrics["service.shed"] = totals["client.refused"]
    metrics["streaming.drains"] = totals["streaming.drains"]
    metrics["streaming.duplicates"] = totals["streaming.duplicates"]
    metrics["storage.crc_bytes"] = totals["storage.crc_bytes"] / count
    metrics["storage.fsyncs_per_req"] = totals["storage.fsyncs"] / count
    metrics["storage.manifest_swaps_per_req"] = \
        totals["storage.manifest_swaps"] / count
    metrics["storage.manifest_bytes_per_req"] = \
        totals["storage.manifest_bytes"] / count
    metrics["storage.write_amp"] = (totals["storage.file_bytes"] / user_bytes
                                    if user_bytes else 0.0)
    series = totals["engine.series"]
    metrics["engine.fastpath_share"] = (totals["engine.fastpath_series"]
                                        / series if series else 0.0)
    metrics["engine.retries"] = totals["engine.retries"]
    metrics["engine.timeouts"] = totals["engine.timeouts"]
    pops = totals["core.pops"]
    metrics["core.accept_ratio"] = (totals["core.removed"] / pops
                                    if pops else 0.0)
    reused = totals["core.fresh_key_hits"] + totals["core.speculative_hits"]
    previews = reused + totals["core.scalar_previews"]
    metrics["core.preview_reuse_share"] = (reused / previews if previews
                                           else 0.0)

    metrics.update(_recovery_metrics(recovery_dumps))

    capacity = max(clients * wall_ns, 1)
    accounted = sum(by_layer.values()) + idle_ns
    coverage = {
        "shares": {**{layer: round(by_layer.get(layer, 0) / capacity, 6)
                      for layer in LAYERS},
                   "gaps": round(idle_ns / capacity, 6)},
        "wall_s": wall_ns / 1e9,
        "clients": clients,
        "accounted_s": accounted / 1e9,
        "capacity_s": capacity / 1e9,
        "ratio": accounted / capacity,
        "tolerance": COVERAGE_TOLERANCE,
        "ok": abs(accounted / capacity - 1.0) <= COVERAGE_TOLERANCE,
        "spans": len(linked),
        "unknown_layers": sorted(set(by_layer) - set(LAYERS)),
    }
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return metrics, coverage


def _recovery_metrics(recovery_dumps) -> dict:
    """Per restart: store open, spool replay and WAL records replayed."""
    restarts = len(recovery_dumps)
    if not restarts:
        return {"streaming.replay_ms": 0.0, "storage.open_ms": 0.0,
                "storage.wal_replay_records": 0.0}
    spans, events = merge_dumps(recovery_dumps)
    opened = sum(end - start for _i, _p, _r, name, start, end in spans
                 if name == "storage.open")
    replay = sum(end - start for _i, _p, _r, name, start, end in spans
                 if name == "streaming.replay")
    records = sum(value for _r, name, value in events
                  if name == "storage.wal_replay_records")
    return {"streaming.replay_ms": replay / 1e6 / restarts,
            "storage.open_ms": opened / 1e6 / restarts,
            "storage.wal_replay_records": records / restarts}


def manifest_profile(dumps, ordered_requests, parts: int = 10) -> list[float]:
    """Manifest bytes per request in each tenth of the timed requests."""
    _spans, events = merge_dumps(dumps)
    per_request: dict[int, int] = defaultdict(int)
    for request, name, value in events:
        if name == "storage.manifest_bytes":
            per_request[request] += value
    size = max(len(ordered_requests) // parts, 1)
    profile = []
    for index in range(parts):
        chunk = ordered_requests[index * size:(index + 1) * size]
        if chunk:
            profile.append(sum(per_request[r] for r in chunk) / len(chunk))
    return profile
