"""``compress_http``: ``POST /compress`` against ``repro serve``, no store.

Each request carries ``SERIES`` gorilla series of ``LENGTH`` points (the
stacked-XOR fast path).  The codec is cheap, so service parsing,
admission, transport and the per-request engine dominate and ``core``
does nothing.  Two closed-loop client threads send pre-encoded bodies
drawn from a seeded pool for ``--seconds``.  A seeded ``BLOCK_SHARE`` of
requests asks for ``include_blocks``; those blocks must decode bit-exact.
Every reply's per-series bit counts must equal an in-process reference
encode of the same series.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .procs import REFUSED, Request, ServerProcess, closed_loop, send
from .stats import latency_summary, median

__all__ = ["make_pool", "make_plans", "check_reply", "run"]

SERIES = 8
LENGTH = 256
POOL = 64
PLAN_LENGTH = 4096
BLOCK_SHARE = 0.02
CLIENTS = 2
SPAWNS = 3
RESTARTS = 5
WARMUP = 20


def make_pool(seed: int) -> list[dict]:
    """``POOL`` request bodies, one series per paper dataset in each."""
    from repro.codecs import get_codec
    from repro.data import load_dataset
    from repro.data.datasets import dataset_names

    names = dataset_names()[:SERIES]
    rng = np.random.default_rng([seed, 0xC0DEC])
    codec = get_codec("gorilla")
    pool = []
    for _index in range(POOL):
        series = [load_dataset(name, length=LENGTH,
                               seed=int(rng.integers(1, 2**31 - 1))).values
                  for name in names]
        document = {"codec": "gorilla", "names": list(names),
                    "series": [values.tolist() for values in series]}
        body = json.dumps(document).encode("utf-8")
        document["include_blocks"] = True
        pool.append({
            "series": series,
            "bits": [codec.encode(values).bits for values in series],
            "body": body,
            "blocks_body": json.dumps(document).encode("utf-8"),
        })
    return pool


def make_plans(seed: int, pool) -> list[list[Request]]:
    """One request sequence per client: seeded pool picks and block asks."""
    headers = {"Content-Type": "application/json"}
    plans = []
    for client in range(CLIENTS):
        rng = np.random.default_rng([seed, 0xB0D1E5, client])
        picks = rng.integers(0, len(pool), PLAN_LENGTH)
        blocks = rng.random(PLAN_LENGTH) < BLOCK_SHARE
        plans.append([
            Request("/compress",
                    pool[pick]["blocks_body" if block else "body"], headers,
                    tag=(int(pick), bool(block)))
            for pick, block in zip(picks.tolist(), blocks.tolist())])
    return plans


def check_reply(reply_status: int, reply_body: bytes, entry: dict,
                include_blocks: bool) -> str:
    """Empty string when the reply is right, else what is wrong."""
    from repro.codecs import get_codec
    from repro.codecs.serialize import block_from_document

    if reply_status != 200:
        return f"status {reply_status}"
    try:
        document = json.loads(reply_body)
    except ValueError:
        return "reply is not JSON"
    if document.get("failed") != 0:
        return f"{document.get('failed')} series failed"
    if document.get("total_points") != SERIES * LENGTH:
        return f"total_points {document.get('total_points')}"
    outcomes = document.get("outcomes") or []
    if [outcome.get("bits") for outcome in outcomes] != entry["bits"]:
        return "encoded bits differ from the reference encode"
    if include_blocks:
        codec = get_codec("gorilla")
        for outcome, original in zip(outcomes, entry["series"]):
            if "block" not in outcome:
                return "include_blocks reply without a block"
            try:
                decoded = codec.decode(block_from_document(outcome["block"]))
            except Exception as exc:  # any decode failure is a wrong reply
                return f"block of {outcome.get('name')} does not decode " \
                       f"bit-exact ({type(exc).__name__})"
            if (decoded.size != original.size
                    or not np.array_equal(decoded.view(np.int64),
                                          original.view(np.int64))):
                return f"block of {outcome.get('name')} does not decode " \
                       "bit-exact"
    return ""


def run(ctx) -> dict:
    pool = make_pool(ctx.seed)
    plans = make_plans(ctx.seed, pool)

    setups = []
    server = None
    try:
        for spawn in range(SPAWNS):
            if server is not None:
                server.kill()
            server = ServerProcess(ctx.root, ctx.stage, ctx.run_dir,
                                   f"compress-{spawn}", trace=ctx.traced)
            setups.append(server.start())
        for request in plans[0][:WARMUP]:
            send(server.port, "POST", request.path, request.body,
                 request.headers)
        loop = closed_loop(server.port, plans,
                           until=time.perf_counter() + ctx.seconds,
                           tracer=ctx.tracer)
        server_trace = server.dump().get("trace") if ctx.traced else None
        recoveries = []
        for restart in range(RESTARTS):
            server.kill()
            server = ServerProcess(ctx.root, ctx.stage, ctx.run_dir,
                                   f"compress-restart-{restart}")
            recoveries.append(server.start())
    finally:
        if server is not None:
            server.kill()

    problems, failed = [], 0
    points = bits = 0
    latencies = []
    blocks_checked = 0
    for reply in loop.replies:
        pick, include_blocks = reply.request.tag
        problem = (reply.error or
                   check_reply(reply.status, reply.body, pool[pick],
                               include_blocks))
        if problem:
            failed += 1
            problems.append(f"request {reply.rid}: {problem}")
            latencies.append(math.inf)
            if reply.status in REFUSED and ctx.tracer is not None:
                ctx.tracer.event("client.refused", 1, request=reply.rid)
            continue
        blocks_checked += include_blocks
        latencies.append(reply.latency_ms)
        document = json.loads(reply.body)
        points += document["total_points"]
        bits += document["encoded_bits"]
    summary = latency_summary(latencies)
    checks = [
        ("every reply is 200 with the reference bit counts", not problems,
         "; ".join(problems[:5]) or f"{len(loop.replies)} replies"),
        ("include_blocks replies decode bit-exact",
         blocks_checked > 0 and not any("decode" in p for p in problems),
         f"{blocks_checked} replies with blocks"),
    ]
    result = {
        "attempted": len(loop.replies),
        "failed": failed,
        "checks": checks,
        "metrics": {
            "throughput_pts_s": points / (loop.wall_ns / 1e9),
            "latency_p50_ms": summary["p50"],
            "latency_p99_ms": summary["tail"],
            "latency_growth": summary["growth"],
            "bits_per_value": bits / points if points else math.nan,
            "setup_s": median(setups),
            "recovery_s": median(recoveries),
        },
        "timed_requests": [reply.rid for reply in loop.replies],
        "wall_ns": loop.wall_ns,
        "clients": CLIENTS,
        "idle_ns": sum(loop.wall_ns - busy for busy in loop.busy_ns),
        "server_traces": [server_trace] if server_trace else [],
        "info": {
            "requests": len(loop.replies),
            "latency_samples": summary["count"],
            "latency_p50_by_tenth_ms": summary["p50_by_tenth"],
            "tail_percentile": round(summary["tail_percentile"], 2),
            "points_per_request": SERIES * LENGTH,
            "include_blocks_replies": blocks_checked,
            "setup_samples": len(setups),
            "recovery_samples": len(recoveries),
            "recovery_meaning": "SIGKILL the stateless server -> restart -> "
                                "first /readyz 200",
            "load": f"closed loop, {CLIENTS} client threads",
        },
    }
    return result
