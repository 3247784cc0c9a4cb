"""The system benchmark's one command.

Run from the repository root::

    python3 perfbench/run.py --workload {cameo_fleet,compress_http,ingest_durable}
        --seed N --seconds S --trace {0,1}

It builds the checkout (``perfbench/env.py``), generates the workload's
inputs from the seed, measures, checks the program's outputs, prints a
human-readable report and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run, each printed
next to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory; import the package
    # from the repository root instead, so no module here shadows another.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import compress_http, fleet, ingest  # noqa: E402
from perfbench.env import (BUILD_DIR, CheckoutError, environment,  # noqa: E402
                           filesystem_type, stage_program)
from perfbench.layers import (PER_LAYER, manifest_profile,  # noqa: E402
                              per_layer_metrics)
from perfbench.spans import Tracer  # noqa: E402

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "throughput_pts_s": "points/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_growth": "ratio",
    "bits_per_value": "bits",
    "setup_s": "s",
    "recovery_s": "s",
}

WORKLOADS = {"cameo_fleet": fleet, "compress_http": compress_http,
             "ingest_durable": ingest}


@dataclass
class Context:
    """What a workload gets: where the program is, and how to measure."""

    root: Path
    stage: Path
    run_dir: Path
    seed: int
    seconds: float
    tracer: Tracer | None

    @property
    def traced(self) -> bool:
        return self.tracer is not None


def _finite(value: float) -> float:
    """JSON has no inf/nan: a failed tail reads as the largest float."""
    if value is None or math.isnan(value):
        return sys.float_info.max
    return min(float(value), sys.float_info.max)


def _report(args, result: dict, env: dict, per_layer: dict | None,
            coverage: dict | None) -> None:
    out = sys.stdout
    out.write(f"workload {args.workload}  seed {args.seed}  "
              f"seconds {args.seconds}  trace {args.trace}\n")
    for key, value in env.items():
        out.write(f"  env.{key}: {value}\n")
    for key, value in result.get("info", {}).items():
        out.write(f"  run.{key}: {value}\n")
    for name, ok, detail in result["checks"]:
        out.write(f"  [{'PASS' if ok else 'FAIL'}] {name} ({detail})\n")
    for problem in result.get("problems", [])[:10]:
        out.write(f"  problem: {problem}\n")
    out.write(f"  attempted {result['attempted']}, failed {result['failed']}"
              "\n")
    label = "traced end-to-end" if per_layer is not None else "end-to-end"
    out.write(f"{label} metrics ({args.workload}):\n")
    for name, unit in END_TO_END.items():
        out.write(f"  {name:<18} {result['metrics'][name]:>16.6f} {unit}\n")
    if per_layer is None:
        return
    out.write("per-layer metrics (self time per timed request unless the "
              "unit says otherwise) -> what each should move:\n")
    for name, (unit, moves) in PER_LAYER.items():
        pairs = ", ".join(f"{metric} on {workload}"
                          for metric, workload in moves)
        out.write(f"  {name:<32} {per_layer[name]:>14.6f} {unit:<6} "
                  f"-> {pairs}\n")
    out.write("layer shares of clients x wall time (moments that parallel "
              "spans share are split between them):\n")
    for layer, share in coverage.pop("shares").items():
        out.write(f"  share.{layer:<10} {share:>9.4f}\n")
    out.write(f"  coverage: {json.dumps(coverage)}\n")
    if result.get("manifest_profile"):
        profile = ", ".join(f"{v:.0f}" for v in result["manifest_profile"])
        out.write(f"  storage.manifest_bytes_per_req by tenth of the run: "
                  f"{profile}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    run_dir = root / BUILD_DIR / f"run-{os.getpid()}"
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        build = stage_program(root, run_dir)
    except (CheckoutError, OSError) as exc:
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"error: cannot build the program here: {exc}", file=sys.stderr)
        return 2
    try:
        sys.path.insert(0, build["stage"])
        tracer = Tracer() if args.trace else None
        ctx = Context(root=root, stage=Path(build["stage"]), run_dir=run_dir,
                      seed=args.seed, seconds=args.seconds, tracer=tracer)
        result = WORKLOADS[args.workload].run(ctx)
        env = environment(build, store_filesystem=filesystem_type(run_dir))
        per_layer = coverage = None
        if tracer is not None:
            per_layer, coverage = per_layer_metrics(
                [tracer.snapshot(), *result.get("server_traces", [])],
                requests=result["timed_requests"],
                wall_ns=result["wall_ns"], clients=result["clients"],
                idle_ns=result["idle_ns"],
                user_bytes=result.get("user_bytes", 0),
                recovery_dumps=result.get("recovery_traces", []))
            per_layer.update(result.get("extra_layer_metrics", {}))
            result["checks"].append((
                "layer self times plus gaps cover the wall time",
                coverage["ok"],
                f"{coverage['ratio']:.4f} of {coverage['clients']} x wall, "
                f"tolerance {coverage['tolerance']}"))
            if args.workload == "ingest_durable":
                result["manifest_profile"] = manifest_profile(
                    result["server_traces"], result["timed_requests"])
        _report(args, result, env, per_layer, coverage)
        correct = all(ok for _name, ok, _detail in result["checks"])
        if per_layer is None:
            metrics = {name: {"value": _finite(result["metrics"][name]),
                              "unit": unit}
                       for name, unit in END_TO_END.items()}
        else:
            metrics = {name: {"value": _finite(per_layer[name]),
                              "unit": unit}
                       for name, (unit, _moves) in PER_LAYER.items()}
        print(json.dumps({"correct": bool(correct),
                          "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
