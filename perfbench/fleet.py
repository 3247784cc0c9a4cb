"""``cameo_fleet``: the paper's path, CAMEO over a fleet of series.

``BatchEngine("cameo", backend="serial")`` with the codec defaults
(``max_lag=24``, ``epsilon=0.01``) compresses a fleet generated from the
seed with ``load_dataset``, one engine call per job:

* *long* jobs: one series of ``LONG_LENGTH`` points each
  (``n * L > 4,096``), which runs on the per-series path;
* *group* jobs: ``GROUP_SIZE`` series of ``SHORT_LENGTH`` points
  (``n * L <= 4,096``), which run on the lock-step fast path.

The fleet is ``ROUNDS`` rounds; every round holds one long job per paper
dataset and ``GROUPS_PER_ROUND`` group jobs.  A pass runs every job twice
back to back; passes repeat until ``--seconds`` of timed work are done.  The
fleet keeps no history between jobs, and a shared machine's speed moves
in phases lasting seconds, so ``latency_growth`` compares each job with
its own repeat a moment later: the median over jobs of second / first
latency.  Cold starts of a separate batch process (set-up and restart
after SIGKILL) are spread over the pass, outside the timed work.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from .stats import latency_summary, median

__all__ = ["make_fleet", "run", "acf_deviation", "check_fleet"]

LONG_LENGTH = 192
SHORT_LENGTH = 64
GROUP_SIZE = 16
GROUPS_PER_ROUND = 2
ROUNDS = 3
MAX_LAG = 24
EPSILON = 0.01
#: Cold starts spread over each pass (plus one before the first).
COLD_PER_PASS = 4


def make_fleet(seed: int) -> list[list[np.ndarray]]:
    """The jobs of one fleet pass, each a list of series (deterministic)."""
    from repro.data import load_dataset
    from repro.data.datasets import dataset_names

    names = dataset_names()
    rng = np.random.default_rng([seed, 0xF1EE7])

    def draw(name: str, length: int) -> np.ndarray:
        series_seed = int(rng.integers(1, 2**31 - 1))
        return load_dataset(name, length=length, seed=series_seed).values

    jobs = []
    for _round in range(ROUNDS):
        round_jobs = [[draw(name, LONG_LENGTH)] for name in names]
        for _group in range(GROUPS_PER_ROUND):
            round_jobs.append([draw(names[i % len(names)], SHORT_LENGTH)
                               for i in range(GROUP_SIZE)])
        jobs.extend(round_jobs)
    return jobs


def acf_deviation(original: np.ndarray, decoded: np.ndarray) -> float:
    """The compressor's bound: mean absolute ACF change over lags 1..L."""
    from repro.stats.acf import lagged_pearson_acf

    lag = min(MAX_LAG, original.size - 1)
    return float(np.mean(np.abs(lagged_pearson_acf(decoded, lag)
                                - lagged_pearson_acf(original, lag))))


def check_fleet(jobs, results, codec) -> tuple[list, float]:
    """Decode every block and hold it to the ACF bound.

    Returns ``(problems, decode_seconds)``; a problem names the job and
    series whose result is missing, has the wrong length, or deviates by
    more than ``epsilon``.
    """
    problems = []
    decode_seconds = 0.0
    for job_index, (series_list, result) in enumerate(zip(jobs, results)):
        for position, original in enumerate(series_list):
            where = f"job {job_index} series {position}"
            outcome = result[position] if position < len(result) else None
            if outcome is None or not outcome.ok:
                problems.append(f"{where}: no block")
                continue
            started = time.perf_counter()
            decoded = codec.decode(outcome.block)
            decode_seconds += time.perf_counter() - started
            if decoded.size != original.size:
                problems.append(f"{where}: decoded {decoded.size} of "
                                f"{original.size} points")
                continue
            deviation = acf_deviation(original, decoded)
            if not deviation <= EPSILON:
                problems.append(f"{where}: ACF deviation {deviation:.5f} "
                                f"> {EPSILON}")
    return problems, decode_seconds


class ColdStarts:
    """Fresh batch processes, each SIGKILLed mid-job by the next.

    Every :meth:`sample` spawns one: its ``ready`` line gives set-up time
    (import plus engine construction, measured inside the child), and
    spawn -> first compressed job is a restart after the previous child
    was killed mid-job (``recovery_s``).  The samples are spread over the
    run, so a phase of a shared machine's speed moves few of them.
    """

    def __init__(self, ctx, job):
        self.job_path = ctx.run_dir / "cold_start_job.npy"
        np.save(self.job_path, np.vstack(job))
        self.command = [sys.executable,
                        str(ctx.root / "perfbench" / "cold_start.py"),
                        str(self.job_path)]
        self.root = ctx.root
        self.env = dict(os.environ, PYTHONPATH=str(ctx.stage))
        self.setups: list[float] = []
        self.recoveries: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        child = subprocess.Popen(self.command, cwd=self.root, env=self.env,
                                 stdout=subprocess.PIPE, text=True)
        try:
            ready = child.stdout.readline().split()
            result = child.stdout.readline().split()
            first_result = time.perf_counter() - started
            if ready[:1] != ["ready"] or result[:1] != ["result"]:
                raise RuntimeError("cold-start child failed")
            self.setups.append(float(ready[1]))
            if self.setups[1:]:  # the first child has no crash before it
                self.recoveries.append(first_result)
        finally:
            child.kill()  # mid-job: it compresses until killed
            child.wait(timeout=30)
            child.stdout.close()


def run(ctx) -> dict:
    from repro.codecs import get_codec
    from repro.engine import BatchEngine

    jobs = make_fleet(ctx.seed)
    cold = ColdStarts(ctx, jobs[0])
    cold.sample()
    engine = BatchEngine("cameo", backend="serial",
                         codec_options={"max_lag": MAX_LAG,
                                        "epsilon": EPSILON})
    # Warm-up outside the timed region: first-use costs are set-up.
    engine.compress(jobs[0] + jobs[len(jobs) // ROUNDS - 1])
    tracer = ctx.tracer
    if tracer is not None:
        from .probes import install_compute

        install_compute(tracer)

    latencies, repeat_ratios, first_pass, reference = [], [], [], None
    points = bits = 0
    deterministic = True
    rid = passes = timed_ns = busy_ns = 0
    cold_every = max(len(jobs) // COLD_PER_PASS, 1)
    while timed_ns < ctx.seconds * 1e9:
        pass_bits = []
        segment_start = time.perf_counter_ns()
        for index, job in enumerate(jobs):
            repeat_ms, repeat_bits = [], []
            for _repeat in range(2):
                rid += 1
                if tracer is not None:
                    tracer.adopt(rid, 0)
                    token = tracer.begin("client.request")
                start = time.perf_counter_ns()
                result = engine.compress(job)
                end = time.perf_counter_ns()
                if tracer is not None:
                    tracer.end(token)
                busy_ns += end - start
                repeat_ms.append((end - start) / 1e6)
                repeat_bits.append(result.report.encoded_bits)
                points += result.report.total_points
                bits += result.report.encoded_bits
            latencies.extend(repeat_ms)
            repeat_ratios.append(repeat_ms[1] / repeat_ms[0])
            deterministic &= repeat_bits[0] == repeat_bits[1]
            pass_bits.append(repeat_bits[0])
            if passes == 0:
                first_pass.append(result)
            if (index + 1) % cold_every == 0:
                timed_ns += time.perf_counter_ns() - segment_start
                cold.sample()
                segment_start = time.perf_counter_ns()
        timed_ns += time.perf_counter_ns() - segment_start
        if reference is None:
            reference = pass_bits
        deterministic &= pass_bits == reference
        passes += 1

    codec = get_codec("cameo", max_lag=MAX_LAG, epsilon=EPSILON)
    problems, decode_seconds = check_fleet(jobs, first_pass, codec)
    failed_series = sum(result.report.failed for result in first_pass)
    checks = [
        ("every series decodes within the ACF bound", not problems,
         "; ".join(problems[:5]) or f"{sum(len(j) for j in jobs)} series"),
        ("repeated runs of a job encode identically", deterministic,
         f"{passes} passes, each job twice"),
    ]
    summary = latency_summary(latencies)
    series_count = sum(len(job) for job in jobs)
    metrics = {
        "throughput_pts_s": points / (timed_ns / 1e9),
        "latency_p50_ms": summary["p50"],
        "latency_p99_ms": summary["tail"],
        "latency_growth": median(repeat_ratios),
        "bits_per_value": bits / points,
        "setup_s": median(cold.setups),
        "recovery_s": median(cold.recoveries),
    }
    return {
        "attempted": series_count,
        "failed": failed_series + len(problems),
        "checks": checks,
        "metrics": metrics,
        "timed_requests": list(range(1, rid + 1)),
        "wall_ns": timed_ns,
        "clients": 1,
        "idle_ns": timed_ns - busy_ns,
        "extra_layer_metrics": {
            "codecs.decode_ms": decode_seconds * 1e3 / len(jobs)},
        "info": {
            "jobs_per_pass": len(jobs), "passes": passes,
            "series_per_pass": series_count,
            "points_per_pass": sum(s.size for job in jobs for s in job),
            "latency_samples": summary["count"],
            "tail_percentile": round(summary["tail_percentile"], 2),
            "setup_samples": len(cold.setups),
            "recovery_samples": len(cold.recoveries),
            "recovery_meaning": "batch process restart after SIGKILL -> "
                                "first compressed job",
        },
    }
