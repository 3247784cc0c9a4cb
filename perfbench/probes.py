"""Where the benchmark puts its spans: the layer entry points of ``repro``.

Each ``install_*`` function wraps public functions and methods of one
group of layers from outside the program (see :func:`perfbench.spans.instrument`).
Span names are ``<layer>.<what>``; the layer is the ``repro`` module that
does the work: ``service``, ``streaming``, ``storage``, ``engine``,
``codecs`` (with ``repro.lossless``), ``core`` (with ``repro.stats``) and
``kernels`` (``repro._kernels``).  Nothing here runs unless a traced run
asks for it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

from .spans import Tracer, call_then, instrument

__all__ = ["install_compute", "install_service", "TimedLock",
           "REQUEST_HEADER"]

#: Header carrying the client's request id, so server spans join the
#: client's request span.
REQUEST_HEADER = "X-Bench-Request"

_HEAP_METHODS = ("pop", "pop_many", "push", "push_many", "heapify",
                 "update", "update_many", "peek", "peek_many",
                 "contains_mask", "remove")


def _record_batch(tracer: Tracer):
    """Events from a BatchEngine result: fast-path share, retries, and
    the CAMEO loop counters each block's metadata already carries."""

    def after(result, _args, _kwargs):
        report = result.report
        tracer.event("engine.series", report.series)
        tracer.event("engine.fastpath_series", report.fastpath_series)
        tracer.event("engine.retries", report.retries)
        tracer.event("engine.timeouts", report.timeouts)
        for outcome in result.outcomes:
            block = outcome.block
            if block is None or "iterations" not in block.metadata:
                continue
            meta = block.metadata
            tracer.event("core.pops", meta["iterations"])
            tracer.event("core.removed", meta["removed_points"])
            reuse = meta.get("preview_reuse") or {}
            tracer.event("core.fresh_key_hits", reuse.get("fresh_key_hits", 0))
            tracer.event("core.speculative_hits",
                         reuse.get("speculative_hits", 0))
            tracer.event("core.scalar_previews",
                         reuse.get("scalar_previews", 0))

    return after


def install_compute(tracer: Tracer) -> None:
    """Spans on ``engine``, ``codecs``, ``core`` and ``kernels``."""
    from repro._kernels import bitpack
    from repro.codecs.adapters import (CameoCodec, ChimpXorCodec,
                                       GorillaXorCodec)
    from repro.core import heap as heap_module
    from repro.core.compressor import CameoCompressor
    from repro.core.tracker import StatisticTracker
    from repro.engine import cameo_batch
    from repro.engine.engine import BatchEngine

    instrument(tracer, BatchEngine, "compress", "engine.compress",
               after=_record_batch(tracer))
    instrument(tracer, CameoCodec, "encode", "codecs.encode.cameo")
    for codec_class, label in ((GorillaXorCodec, "gorilla"),
                               (ChimpXorCodec, "chimp")):
        instrument(tracer, codec_class, "encode", f"codecs.encode.{label}")
        instrument(tracer, codec_class, "encode_many",
                   f"codecs.encode.{label}")
    instrument(tracer, bitpack, "pack_bits", "kernels.pack_bits")
    instrument(tracer, CameoCompressor, "compress", "core.compress")
    instrument(tracer, CameoCompressor, "_run", "core.loop")
    instrument(tracer, StatisticTracker, "initial_impacts",
               "core.initial_impacts")
    instrument(tracer, StatisticTracker, "batch_impacts_segments",
               "core.reheap")
    instrument(tracer, cameo_batch, "_stacked_impacts", "core.reheap")
    instrument(tracer, StatisticTracker, "apply", "core.apply")
    instrument(tracer, StatisticTracker, "preview", "core.preview")
    instrument(tracer, StatisticTracker, "deviation", "core.preview")
    instrument(tracer, cameo_batch, "lockstep_compress", "core.lockstep")
    for heap_class in (heap_module.IndexedMinHeap,
                       heap_module.NativeIndexedMinHeap):
        for method in _HEAP_METHODS:
            if hasattr(heap_class, method):
                instrument(tracer, heap_class, method, "core.heap")


class TimedLock:
    """A lock stand-in that records the time spent waiting to acquire."""

    def __init__(self, lock, tracer: Tracer, name: str):
        self._lock = lock
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        request, parent = self._tracer.context()
        start = time.perf_counter_ns()
        self._lock.acquire()
        self._tracer.record(self._name, start, time.perf_counter_ns(),
                            request=request, parent=parent)
        return self

    def __exit__(self, *_exc):
        self._lock.release()
        return False


def install_service(tracer: Tracer) -> None:
    """Spans on ``service``, ``streaming`` and ``storage``, plus compute."""
    from repro.service import server as server_module
    from repro.service.admission import AdmissionController
    from repro.storage import checksum, durable, wal
    from repro.streaming.chunked import MultiStreamCompressor

    install_compute(tracer)

    # -- service: handler, admission, queue wait, execution ------------ #
    original_handle = server_module.handle_request

    def handle_request(service, method, path, headers, body):
        request = int(headers.get(REQUEST_HEADER) or 0)
        tracer.adopt(request, 0)
        token = tracer.begin("service.handle")
        try:
            return original_handle(service, method, path, headers, body)
        finally:
            tracer.end(token)
            tracer.adopt(0, 0)

    server_module.handle_request = handle_request

    # job id -> [request, parent span, enqueue time]; registered before
    # the job becomes visible to a worker, stamped once submit returns.
    submitted: dict[int, list] = {}
    running: dict[int, tuple] = {}
    original_submit = AdmissionController.submit
    original_next = AdmissionController.next_job
    original_finish = AdmissionController.finish

    def submit(self, job):
        request, parent = tracer.context()
        entry = submitted[job.id] = [request, parent, None]
        token = tracer.begin("service.admit")
        try:
            shed = original_submit(self, job)
        finally:
            tracer.end(token)
        if shed is None:
            entry[2] = time.perf_counter_ns()
        else:
            submitted.pop(job.id, None)
        return shed

    def next_job(self, timeout=0.1):
        job = original_next(self, timeout)
        if job is not None:
            popped = time.perf_counter_ns()
            request, parent, queued = submitted.pop(job.id, (0, 0, None))
            queued = popped if queued is None else min(queued, popped)
            tracer.record("service.queue_wait", queued, popped,
                          request=request, parent=parent)
            tracer.adopt(request, parent)
            running[job.id] = tracer.begin("service.execute")
        return job

    def finish(self, job, *, started_at=None):
        token = running.pop(job.id, None)
        if token is not None:
            tracer.end(token)
            tracer.adopt(0, 0)
        return original_finish(self, job, started_at=started_at)

    AdmissionController.submit = submit
    AdmissionController.next_job = next_job
    AdmissionController.finish = finish

    original_init = server_module.CompressionService.__init__

    def service_init(self, config=None):
        original_init(self, config)
        self._spool_lock = TimedLock(self._spool_lock, tracer,
                                     "service.spool_lock_wait")

    server_module.CompressionService.__init__ = service_init

    # Engine chunks on the thread backend run in pool threads: hand them
    # the submitting thread's request and parent span.
    original_pool_submit = ThreadPoolExecutor.submit

    def pool_submit(self, fn, /, *args, **kwargs):
        request, parent = tracer.context()

        def run(*inner_args, **inner_kwargs):
            tracer.adopt(request, parent)
            try:
                return fn(*inner_args, **inner_kwargs)
            finally:
                tracer.adopt(0, 0)

        return original_pool_submit(self, run, *args, **kwargs)

    ThreadPoolExecutor.submit = pool_submit

    # -- streaming -------------------------------------------------------- #
    instrument(tracer, MultiStreamCompressor, "add", "streaming.add")

    def after_idempotent(result, _args, _kwargs):
        if result[1]:
            tracer.event("streaming.duplicates", 1)

    instrument(tracer, MultiStreamCompressor, "add_idempotent",
               "streaming.idempotency", after=after_idempotent)

    def after_drain(result, _args, _kwargs):
        if result:
            tracer.event("streaming.drains", 1)

    instrument(tracer, MultiStreamCompressor, "drain", "streaming.drain",
               after=after_drain)
    instrument(tracer, MultiStreamCompressor, "replay_spool",
               "streaming.replay")

    # -- storage ---------------------------------------------------------- #
    def after_open(_result, args, _kwargs):
        store = args[0]
        tracer.event("storage.wal_replay_records",
                     store.recovery.replayed_records)

    instrument(tracer, durable.DurableStore, "__init__", "storage.open",
               after=after_open)
    instrument(tracer, durable.DurableStore, "append", "storage.append")
    instrument(tracer, durable.DurableStore, "update_metadata",
               "storage.metadata")
    instrument(tracer, durable.DurableStore, "create_series",
               "storage.catalog")
    instrument(tracer, durable.DurableStore, "drop_series", "storage.catalog")
    instrument(tracer, durable.DurableStore, "_checkpoint",
               "storage.checkpoint")

    def after_wal(result, _args, _kwargs):
        tracer.event("storage.file_bytes", result)

    instrument(tracer, wal.WriteAheadLog, "append", "storage.wal_append",
               after=after_wal)

    def before_manifest(self):
        path = self.directory / durable.MANIFEST_NAME
        try:
            # the current manifest is copied to the fallback first
            tracer.event("storage.file_bytes", os.path.getsize(path))
        except OSError:
            pass
        tracer.event("storage.manifest_swaps", 1)

    original_manifest = durable.DurableStore._write_manifest

    def write_manifest(self):
        before_manifest(self)
        return original_manifest(self)

    durable.DurableStore._write_manifest = write_manifest
    instrument(tracer, durable.DurableStore, "_write_manifest",
               "storage.manifest")

    def after_atomic(_result, args, _kwargs):
        _store, relpath, data = args[:3]
        tracer.event("storage.file_bytes", len(data))
        if str(relpath) == durable.MANIFEST_NAME:
            tracer.event("storage.manifest_bytes", len(data))

    instrument(tracer, durable.DurableStore, "_atomic_write",
               "storage.atomic_write", after=after_atomic)

    original_encode = durable.encode_record

    def encode_record(record):
        data = original_encode(record)
        tracer.event("storage.file_bytes", len(data))
        return data

    durable.encode_record = encode_record

    def after_crc(_result, args, _kwargs):
        tracer.event("storage.crc_bytes", len(args[0]))

    instrument(tracer, checksum, "crc32c", "storage.crc", after=after_crc)

    def after_fsync(_result, _args, _kwargs):
        tracer.event("storage.fsyncs", 1)

    os.fsync = tracer.wrap(call_then(os.fsync, after_fsync), "storage.fsync")
