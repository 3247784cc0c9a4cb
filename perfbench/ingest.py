"""``ingest_durable``: idempotent ``POST /ingest`` into a durable store.

``repro serve --store <fresh dir>`` with the default
``spool_fsync="always"``.  ``STREAMS`` streams get ``VALUES`` values per
request, every request carries an ``Idempotency-Key``, and each stream
is owned by one of the two closed-loop clients, so chunking is
deterministic.  A seeded ``RETRY_SHARE`` of requests re-sends a key the
same client had acked among its last ``RETRY_WINDOW`` requests; those
must come back ``duplicate``.  The run is a fixed request count, never a
fixed duration: the cost of a request grows with the idempotency
journal, so a duration-bounded run would penalise a faster build.

``REQUESTS_PER_STREAM`` keeps the journal at 656 keys, below its
1,024-key cap: the cost per request grows linearly with the journal, so
the run time grows with the square of the key count, and on a shared
2-vCPU machine whose speed halves at times, 1,040 keys took 64-120 s a
run, too long for a full set of measurement runs to finish within an
hour.  The count is
odd per stream, so each stream ends with half a chunk buffered and every
restart has 2,048 acked-but-undrained values to replay.

Afterwards the server is SIGKILLed between requests and restarted on the
same store ``RESTARTS`` times (``recovery_s``: spawn → first ``/readyz``
200, covering store open, spool replay and backlog drain).  All but the
first of the ``SPAWNS`` set-up samples (a fresh store, spawn → first
``/readyz`` 200) are taken between those restarts, and the restarts are
``RESTART_GAP`` seconds apart, so that both medians spread over several
of the seconds-long phases in which a vCPU of a shared machine runs fast
or slow.  The checks:
every stream reconstructs to exactly the acked values in order, each
restart replays exactly the acked-but-undrained values, and re-sent
acked keys come back ``duplicate``.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .procs import REFUSED, Request, ServerProcess, closed_loop, get_json, send
from .stats import latency_summary, median

__all__ = ["make_streams", "make_plans", "check_streams", "run"]

STREAMS = 16
VALUES = 128
REQUESTS_PER_STREAM = 41
CLIENTS = 2
RETRY_SHARE = 0.05
RETRY_WINDOW = 64
SPAWNS = 5
RESTARTS = 9
#: Seconds between restarts, so that their median spans several speed
#: phases of the machine rather than one.
RESTART_GAP = 2.0
RESEND = 32
RESEND_WINDOW = 512
FSYNC = "always"


def make_streams(seed: int) -> dict[str, np.ndarray]:
    """Every stream's full value sequence, from the paper's datasets."""
    from repro.data import load_dataset
    from repro.data.datasets import dataset_names

    names = dataset_names()
    rng = np.random.default_rng([seed, 0x1A6E57])
    return {f"sensor-{index:02d}": load_dataset(
                names[index % len(names)],
                length=REQUESTS_PER_STREAM * VALUES,
                seed=int(rng.integers(1, 2**31 - 1))).values
            for index in range(STREAMS)}


def make_plans(seed: int, streams: dict) -> list[list[Request]]:
    """Each client's requests: its streams round-robin, seeded retries.

    A request's ``tag`` is ``(stream, chunk index, retry?)``.
    """
    names = sorted(streams)
    owned = [names[client::CLIENTS] for client in range(CLIENTS)]
    plans = []
    for client in range(CLIENTS):
        rng = np.random.default_rng([seed, 0x2E7, client])
        plan: list[Request] = []
        originals: list[Request] = []
        for chunk in range(REQUESTS_PER_STREAM):
            for stream in owned[client]:
                values = streams[stream][chunk * VALUES:(chunk + 1) * VALUES]
                body = json.dumps({"stream": stream,
                                   "values": values.tolist()}).encode()
                request = Request("/ingest", body, {
                    "Content-Type": "application/json",
                    "Idempotency-Key": f"{seed}/{stream}/{chunk}"},
                    tag=(stream, chunk, False))
                plan.append(request)
                originals.append(request)
                if rng.random() < RETRY_SHARE:
                    recent = originals[-RETRY_WINDOW:]
                    again = recent[int(rng.integers(len(recent)))]
                    plan.append(Request(again.path, again.body, again.headers,
                                        tag=(again.tag[0], again.tag[1],
                                             True)))
        plans.append(plan)
    return plans


def check_streams(expected: dict, pieces: list[dict]) -> list[str]:
    """Each stream is its pieces, concatenated in order, bit for bit."""
    problems = []
    for stream, values in expected.items():
        parts = [np.asarray(piece.get(stream, []), dtype=np.float64)
                 for piece in pieces]
        got = np.concatenate(parts) if parts else np.empty(0)
        if got.size != values.size:
            problems.append(f"{stream}: {got.size} values, acked "
                            f"{values.size}")
        elif not np.array_equal(got.view(np.int64),
                                np.asarray(values, np.float64).view(np.int64)):
            first = int(np.flatnonzero(got.view(np.int64)
                                       != values.view(np.int64))[0])
            problems.append(f"{stream}: differs from the acked values at "
                            f"position {first}")
    return problems


def _spool_tails(store_dir, streams) -> dict:
    """Values past each stream's drained watermark, read from the store."""
    from repro.storage.durable import DurableStore

    store = DurableStore.open(store_dir)
    try:
        tails = {}
        for name in streams:
            if name in store:
                watermark = int(store.metadata(name).get("drained", 0))
                tails[name] = store.read(
                    name, min(watermark, store.length(name))).tolist()
        return tails
    finally:
        store.close()


def run(ctx) -> dict:
    streams = make_streams(ctx.seed)
    plans = make_plans(ctx.seed, streams)
    store = ctx.run_dir / "store"

    setups = []
    server = None
    # one list per correctness gate
    request_problems: list[str] = []
    stream_problems: list[str] = []
    replay_problems: list[str] = []
    resend_problems: list[str] = []
    pieces: list[dict] = []
    recovery_traces = []

    def set_up(spawn: int) -> None:
        """One more set-up sample: a fresh store, spawned then killed."""
        fresh = ServerProcess(ctx.root, ctx.stage, ctx.run_dir,
                              f"ingest-{spawn}", fsync=FSYNC,
                              store=ctx.run_dir / f"store-setup-{spawn}")
        try:
            setups.append(fresh.start())
        finally:
            fresh.kill()

    try:
        server = ServerProcess(ctx.root, ctx.stage, ctx.run_dir, "ingest",
                               store=store, trace=ctx.traced, fsync=FSYNC)
        setups.append(server.start())
        loop = closed_loop(server.port, plans, tracer=ctx.tracer)
        # ---- what the clients saw -------------------------------------
        acked = {name: [] for name in streams}
        failed = 0
        latencies = []
        retries = duplicates = 0
        for reply in loop.replies:
            stream, chunk, retry = reply.request.tag
            retries += retry
            ok = reply.status == 200 and not reply.error
            if ok:
                answer = json.loads(reply.body)
                ok = (answer.get("duplicate") is retry
                      and answer.get("ingested") == (0 if retry else VALUES))
                duplicates += bool(answer.get("duplicate"))
            if not ok:
                failed += 1
                latencies.append(math.inf)
                request_problems.append(
                    f"request {reply.rid} ({stream} chunk {chunk}, "
                    f"retry={retry}): status {reply.status} "
                    f"{reply.error}".strip())
                if reply.status in REFUSED and ctx.tracer is not None:
                    ctx.tracer.event("client.refused", 1, request=reply.rid)
                continue
            latencies.append(reply.latency_ms)
            if not retry:
                acked[stream].append(chunk)
        expected = {}
        for name, chunks in acked.items():
            if chunks != sorted(chunks) or len(set(chunks)) != len(chunks):
                stream_problems.append(f"{name}: chunks acked out of order")
            expected[name] = (np.concatenate(
                [streams[name][c * VALUES:(c + 1) * VALUES] for c in chunks])
                if chunks else np.empty(0))
        acked_values = sum(values.size for values in expected.values())

        # ---- the server's view, then the crash -------------------------
        summary = get_json(server.port, "/streams")
        bits = points = 0
        for name, values in expected.items():
            info = summary["streams"].get(name, {})
            if info.get("ingested_points") != values.size:
                stream_problems.append(
                    f"{name}: server ingested {info.get('ingested_points')}, "
                    f"acked {values.size}")
            bits += info.get("encoded_bits", 0)
            points += info.get("sealed_points", 0)
        state = server.dump()
        server_trace = state.get("trace")
        pieces.append(state.get("streams", {}))
        server.kill()

        # ---- restarts on the SIGKILLed store ---------------------------
        recoveries = []
        for restart in range(RESTARTS):
            if restart:
                time.sleep(RESTART_GAP)
            drained = sum(len(values) for piece in pieces
                          for values in piece.values())
            server = ServerProcess(ctx.root, ctx.stage, ctx.run_dir,
                                   f"ingest-restart-{restart}", store=store,
                                   trace=ctx.traced, fsync=FSYNC)
            recoveries.append(server.start())
            replayed = get_json(server.port, "/streams")["replayed_values"]
            if replayed != acked_values - drained:
                replay_problems.append(
                    f"restart {restart} replayed {replayed} values, "
                    f"expected {acked_values - drained}")
            if restart < RESTARTS - 1:
                state = server.dump()
                pieces.append(state.get("streams", {}))
                recovery_traces.append(state.get("trace"))
                server.kill()
                # the other set-up samples go between the restarts, so
                # both kinds spread over the vCPU's changing speed
                if restart < SPAWNS - 1:
                    set_up(restart + 1)

        # ---- re-sent acked keys must be duplicates ----------------------
        rng = np.random.default_rng([ctx.seed, 0xD0B])
        recent = [reply.request for reply in loop.replies
                  if not reply.request.tag[2]][-RESEND_WINDOW:]
        resent_ok = 0
        for index in rng.choice(len(recent), size=min(RESEND, len(recent)),
                                replace=False).tolist():
            request = recent[int(index)]
            status, body = send(server.port, "POST", request.path,
                                request.body, request.headers)
            if status == 200 and json.loads(body).get("duplicate") is True:
                resent_ok += 1
            else:
                resend_problems.append(
                    f"re-sent key {request.headers['Idempotency-Key']} was "
                    f"not a duplicate (status {status})")
        state = server.stop()
        pieces.append(state.get("streams", {}))
        recovery_traces.append(state.get("trace"))
    finally:
        if server is not None:
            server.kill()
    pieces.append(_spool_tails(store, streams))
    stream_problems.extend(check_streams(expected, pieces))

    summary_latency = latency_summary(latencies)
    checks = [
        ("every request acked as expected (retries duplicate)",
         not request_problems,
         f"{len(loop.replies)} requests, {retries} retries"),
        ("every stream reconstructs to the acked values in order",
         not stream_problems,
         f"{len(expected)} streams, {acked_values} values"),
        ("each restart replays the acked-but-undrained values",
         not replay_problems, f"{RESTARTS} restarts"),
        ("re-sent acked keys come back duplicate",
         not resend_problems and resent_ok == RESEND,
         f"{resent_ok}/{RESEND}"),
    ]
    return {
        "attempted": len(loop.replies),
        "failed": failed,
        "problems": (request_problems + stream_problems + replay_problems
                     + resend_problems),
        "checks": checks,
        "metrics": {
            "throughput_pts_s": acked_values / (loop.wall_ns / 1e9),
            "latency_p50_ms": summary_latency["p50"],
            "latency_p99_ms": summary_latency["tail"],
            "latency_growth": summary_latency["growth"],
            "bits_per_value": bits / points if points else math.nan,
            "setup_s": median(setups),
            "recovery_s": median(recoveries),
        },
        "timed_requests": [reply.rid for reply in loop.replies],
        "wall_ns": loop.wall_ns,
        "clients": CLIENTS,
        "idle_ns": sum(loop.wall_ns - busy for busy in loop.busy_ns),
        "user_bytes": 8 * acked_values,
        "server_traces": [server_trace] if server_trace else [],
        "recovery_traces": [t for t in recovery_traces if t],
        "info": {
            "requests": len(loop.replies),
            "retries": retries,
            "duplicates_seen": duplicates,
            "unique_keys": sum(len(c) for c in acked.values()),
            "latency_samples": summary_latency["count"],
            "latency_p50_by_tenth_ms": summary_latency["p50_by_tenth"],
            "tail_percentile": round(summary_latency["tail_percentile"], 2),
            "spool_fsync": FSYNC,
            "recovery_samples": len(recoveries),
            "setup_samples": len(setups),
            "load": f"closed loop, {CLIENTS} client threads, fixed "
                    "request count",
        },
    }
