"""Run ``repro serve`` with the benchmark's dump hook and, traced, its spans.

Usage (from the repository root, with the staged program on PYTHONPATH)::

    python perfbench/serve.py --dump state.json [--trace] -- --port 0 --store DIR

Everything after ``--`` goes to ``repro serve`` unchanged.  On SIGUSR1
and again when the service has drained and exited, the process writes
``--dump``: every ingest stream's decoded drained chunks, the spool
replay count, and (traced) every span and event recorded so far.  The
benchmark reads that file to check the ingest path end to end and to
keep spans of a server it is about to SIGKILL.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# Run as a script, sys.path[0] is this directory; import the package
# from the repository root instead, so no module here shadows another.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.probes import install_service  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def _state(services, tracer, reason: str) -> dict:
    document = {"reason": reason, "pid": os.getpid()}
    if services:
        service = services[-1]
        with service._spool_lock:  # noqa: SLF001 - quiesce the ingest path
            multi = service.multi
            document["streams"] = {name: multi.reconstruct(name).tolist()
                                   for name in multi.streams}
            document["encode_errors"] = len(multi.errors)
            document["replayed"] = service.replayed
    if tracer is not None:
        document["trace"] = tracer.snapshot()
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True,
                        help="state file written on SIGUSR1 and at exit")
    parser.add_argument("--trace", action="store_true",
                        help="record spans around every layer entry point")
    parser.add_argument("serve", nargs=argparse.REMAINDER,
                        help="-- followed by repro serve arguments")
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve if arg != "--"]

    from repro import cli
    from repro.service import server as server_module

    services = []
    original_init = server_module.CompressionService.__init__

    def init(self, config=None):
        original_init(self, config)
        services.append(self)

    server_module.CompressionService.__init__ = init
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_service(tracer)

    def dump(reason: str) -> None:
        tmp = f"{args.dump}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(_state(services, tracer, reason), handle)
        os.replace(tmp, args.dump)

    signal.signal(signal.SIGUSR1, lambda *_: dump("signal"))
    code = cli.main(["serve", *serve_args])
    dump("exit")
    return code


if __name__ == "__main__":
    sys.exit(main())
