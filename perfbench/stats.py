"""Latency summaries used by every workload."""

from __future__ import annotations

import statistics

__all__ = ["tail_percentile", "latency_summary", "growth", "median"]

#: A tail percentile is reported only with at least this many samples
#: beyond it.
BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def tail_percentile(samples) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 beyond.

    Samples are latencies; ``math.inf`` stands for a failed or refused
    request, which counts as beyond any limit.  With ``n`` samples the
    percentile is ``100 * (1 - 10 / n)`` (p99 needs 1,000 samples) and its
    value is the sample at rank ``n - 10`` of the sorted list, so exactly
    ten samples lie strictly beyond it (ties aside).  Fewer than 11
    samples support no tail percentile; the maximum is returned with
    percentile 100 so a short run is visible rather than hidden.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        return 0.0, float("nan")
    if count <= BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (1.0 - BEYOND / count), ordered[count - BEYOND - 1]


def growth(samples) -> float:
    """p50 of the second half of ``samples`` over p50 of the first half.

    Halves, not tenths: on a shared 2-vCPU machine the speed moves
    by up to a fifth in phases lasting seconds, and a one-second tenth
    inherits that whole swing (measured spread of the tenth ratio across
    seeds: 0.14-0.25 on compress_http, 0.27 on ingest_durable).
    """
    half = len(samples) // 2
    if half == 0:
        return float("nan")
    first = median(samples[:half])
    last = median(samples[-half:])
    if not first > 0:
        return float("nan")
    return last / first


def latency_summary(samples_ms) -> dict:
    """Median, tail percentile and growth of per-request latencies (ms)."""
    percentile, tail = tail_percentile(samples_ms)
    tenth = max(len(samples_ms) // 10, 1)
    return {
        "count": len(samples_ms),
        "p50_by_tenth": [round(median(samples_ms[i:i + tenth]), 3)
                         for i in range(0, tenth * 10, tenth)
                         if samples_ms[i:i + tenth]],
        "p50": median(sorted(samples_ms)) if samples_ms else float("nan"),
        "tail_percentile": percentile,
        "tail": tail,
        "growth": growth(samples_ms),
    }
