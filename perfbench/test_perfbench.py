"""Self-tests of the system benchmark: fast, small, no server started."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import compress_http, fleet, ingest
from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, WORKLOADS
from perfbench.spans import Tracer, exclusive_times, instrument, self_times
from perfbench.stats import growth, latency_summary, tail_percentile


# --------------------------------------------------------------------- #
# the >= 10-beyond percentile rule
# --------------------------------------------------------------------- #
def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1..1000
    percentile, value = tail_percentile(samples)
    assert percentile == pytest.approx(99.0)
    assert value == 990
    assert sum(sample > value for sample in samples) == 10


def test_tail_percentile_is_lower_for_small_samples():
    percentile, value = tail_percentile(list(range(1, 101)))
    assert percentile == pytest.approx(90.0)
    assert value == 90


def test_failed_requests_count_beyond_any_limit():
    samples = [1.0] * 989 + [math.inf] * 11
    _percentile, value = tail_percentile(samples)
    assert value == math.inf
    summary = latency_summary([1.0] * 990 + [math.inf] * 10)
    assert summary["tail"] == 1.0 and summary["count"] == 1000


def test_too_few_samples_report_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_growth_compares_second_and_first_half():
    assert growth([1.0] * 50 + [3.0] * 50) == pytest.approx(3.0)
    assert growth([1.0] * 40 + [9.0] * 20 + [2.0] * 40) == pytest.approx(2.0)


# --------------------------------------------------------------------- #
# self time on a synthetic span tree
# --------------------------------------------------------------------- #
def test_self_time_subtracts_covered_child_intervals():
    spans = [
        (1, 0, 0, 100),    # root
        (2, 1, 10, 30),    # child
        (3, 1, 40, 90),    # child with its own child
        (4, 3, 50, 60),
        (5, 3, 55, 70),    # overlaps its sibling: union, not sum
        (6, 1, 95, 120),   # sticks out of the root: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - 20 - 50 - 5
    assert selfs[3] == 50 - 20
    assert selfs[4] == 10 and selfs[5] == 15 and selfs[6] == 25


def test_exclusive_time_splits_parallel_children():
    spans = [(1, 0, 0, 100), (2, 1, 20, 60), (3, 1, 40, 80)]
    charged = exclusive_times(spans)
    assert charged[1] == pytest.approx(40)
    assert charged[2] == pytest.approx(20 + 10)
    assert charged[3] == pytest.approx(10 + 20)
    assert sum(charged.values()) == pytest.approx(100)


def test_tracer_records_nested_spans_with_request_ids():
    tracer = Tracer()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    instrument(tracer, Layer, "outer", "service.outer")
    instrument(tracer, Layer, "inner", "core.inner")
    tracer.adopt(7, 0)
    assert Layer().outer() == 2
    snapshot = tracer.snapshot()
    names = snapshot["names"]
    spans = {names[s[3]]: s for s in snapshot["spans"]}
    outer, inner = spans["service.outer"], spans["core.inner"]
    assert inner[1] == outer[0] and outer[1] == 0
    assert outer[2] == inner[2] == 7
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]


# --------------------------------------------------------------------- #
# inputs depend on the seed and nothing else
# --------------------------------------------------------------------- #
def _bodies(plans):
    return [request.body for plan in plans for request in plan]


def test_compress_bodies_are_reproducible_per_seed():
    first = compress_http.make_plans(1, compress_http.make_pool(1))
    again = compress_http.make_plans(1, compress_http.make_pool(1))
    other = compress_http.make_plans(2, compress_http.make_pool(2))
    assert _bodies(first) == _bodies(again)
    assert _bodies(first) != _bodies(other)


def test_ingest_bodies_are_reproducible_per_seed():
    first = ingest.make_plans(1, ingest.make_streams(1))
    again = ingest.make_plans(1, ingest.make_streams(1))
    other = ingest.make_plans(2, ingest.make_streams(2))
    assert _bodies(first) == _bodies(again)
    assert _bodies(first) != _bodies(other)
    keys = [request.headers["Idempotency-Key"] for plan in first
            for request in plan if not request.tag[2]]
    assert len(set(keys)) == len(keys) == (ingest.STREAMS
                                           * ingest.REQUESTS_PER_STREAM)


def test_fleet_is_reproducible_per_seed():
    first, again, other = (fleet.make_fleet(seed) for seed in (1, 1, 2))
    flat = [np.concatenate([np.concatenate(job) for job in jobs])
            for jobs in (first, again, other)]
    assert flat[0].tobytes() == flat[1].tobytes()
    assert flat[0].tobytes() != flat[2].tobytes()


# --------------------------------------------------------------------- #
# every correctness gate fires on a corrupted output
# --------------------------------------------------------------------- #
class _Corrupting:
    """A codec stand-in whose decode damages the real decoder's output."""

    def __init__(self, codec, damage):
        self.codec = codec
        self.damage = damage

    def decode(self, block):
        return self.damage(self.codec.decode(block))


@pytest.fixture(scope="module")
def fleet_job():
    from repro.codecs import get_codec
    from repro.engine import BatchEngine

    job = [fleet.make_fleet(3)[0][0]]
    engine = BatchEngine("cameo", backend="serial",
                         codec_options={"max_lag": fleet.MAX_LAG,
                                        "epsilon": fleet.EPSILON})
    codec = get_codec("cameo", max_lag=fleet.MAX_LAG, epsilon=fleet.EPSILON)
    return job, engine.compress(job), codec


def test_fleet_gate_passes_a_correct_result(fleet_job):
    job, result, codec = fleet_job
    problems, _seconds = fleet.check_fleet([job], [result], codec)
    assert problems == []


def test_fleet_gate_fires_on_a_dropped_value(fleet_job):
    job, result, codec = fleet_job
    dropped = _Corrupting(codec, lambda values: values[:-1])
    problems, _seconds = fleet.check_fleet([job], [result], dropped)
    assert problems and "decoded" in problems[0]


def test_fleet_gate_fires_beyond_the_acf_bound(fleet_job):
    job, result, codec = fleet_job
    noisy = _Corrupting(codec, lambda values: values + np.random.default_rng(
        0).normal(0.0, values.std() * 3, values.size))
    problems, _seconds = fleet.check_fleet([job], [result], noisy)
    assert problems and "ACF deviation" in problems[0]


@pytest.fixture(scope="module")
def compress_reply():
    from repro.codecs import get_codec
    from repro.codecs.serialize import block_to_document

    entry = compress_http.make_pool(4)[0]
    codec = get_codec("gorilla")
    blocks = [codec.encode(values) for values in entry["series"]]
    document = {
        "failed": 0,
        "total_points": compress_http.SERIES * compress_http.LENGTH,
        "encoded_bits": sum(block.bits for block in blocks),
        "outcomes": [{"name": f"s{i}", "bits": block.bits, "ok": True,
                      "block": block_to_document(block)}
                     for i, block in enumerate(blocks)],
    }
    return entry, document


def test_compress_gate_passes_a_correct_reply(compress_reply):
    entry, document = compress_reply
    body = json.dumps(document).encode()
    assert compress_http.check_reply(200, body, entry, True) == ""


def test_compress_gate_fires_on_a_flipped_bit(compress_reply):
    entry, document = compress_reply
    damaged = json.loads(json.dumps(document))
    payload = damaged["outcomes"][3]["block"]["payload"]
    data = bytearray.fromhex(payload["data"])
    data[len(data) // 2] ^= 0x10
    payload["data"] = data.hex()
    problem = compress_http.check_reply(200, json.dumps(damaged).encode(),
                                        entry, True)
    assert "bit-exact" in problem


def test_compress_gate_fires_on_wrong_bits_or_refusal(compress_reply):
    entry, document = compress_reply
    damaged = json.loads(json.dumps(document))
    damaged["outcomes"][0]["bits"] += 1
    body = json.dumps(damaged).encode()
    assert "reference" in compress_http.check_reply(200, body, entry, False)
    assert compress_http.check_reply(429, b"{}", entry, False) == "status 429"


def test_ingest_gate_passes_exact_streams():
    expected = {"a": np.arange(10.0), "b": np.arange(5.0) / 3}
    pieces = [{"a": list(range(6))}, {"a": [6.0, 7.0, 8.0, 9.0],
                                      "b": (np.arange(5.0) / 3).tolist()}]
    assert ingest.check_streams(expected, pieces) == []


def test_ingest_gate_fires_on_a_dropped_value():
    expected = {"a": np.arange(10.0)}
    problems = ingest.check_streams(expected, [{"a": list(range(9))}])
    assert problems and "9 values" in problems[0]


def test_ingest_gate_fires_on_a_flipped_bit():
    values = np.linspace(0.0, 1.0, 10)
    damaged = values.copy()
    damaged.view(np.int64)[4] ^= 1  # lowest mantissa bit
    problems = ingest.check_streams({"a": values}, [{"a": damaged.tolist()}])
    assert problems and "position 4" in problems[0]


def test_benchmark_json_declares_the_metrics_printed():
    root = Path(__file__).resolve().parent.parent
    document = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == {
        name: unit for name, (unit, _moves) in PER_LAYER.items()}
    # compress_http runs by hand but is not in the measured set: its tail
    # latency did not hold steady on a shared 2-vCPU machine (README.md)
    assert [w["name"] for w in document["workloads"]] == [
        name for name in WORKLOADS if name != "compress_http"]
