"""The service under test in its own process, and the closed-loop client.

:class:`ServerProcess` spawns ``repro serve`` (through ``perfbench/serve.py``)
on the staged program, times spawn → first ``/readyz`` 200, asks for state
dumps, and stops it gracefully or with SIGKILL.  :func:`closed_loop` runs
one client thread per request plan; each thread sends its next request
only after the previous reply arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .probes import REQUEST_HEADER

__all__ = ["ServerProcess", "Request", "Reply", "closed_loop", "get_json",
           "send"]

#: Statuses that mean the service refused the request.
REFUSED = (429, 503, 504)

#: Request ids are ``(client + 1) * RID_STRIDE + position``: unique per
#: run, and they name the client that sent them.
RID_STRIDE = 10_000_000


class ServerProcess:
    """One ``repro serve`` process on the staged program."""

    def __init__(self, root: Path, stage: Path, run_dir: Path, name: str, *,
                 store: Path | None = None, trace: bool = False,
                 fsync: str = "always"):
        self.root = root
        self.stage = stage
        self.dump_path = run_dir / f"{name}.dump.json"
        self.log_path = run_dir / f"{name}.log"
        self.store = store
        self.trace = trace
        self.fsync = fsync
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.ready_seconds = float("nan")

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for ``/readyz``; returns spawn → ready seconds."""
        command = [sys.executable, str(self.root / "perfbench" / "serve.py"),
                   "--dump", str(self.dump_path)]
        if self.trace:
            command.append("--trace")
        command += ["--", "--port", "0", "--fsync", self.fsync]
        if self.store is not None:
            command += ["--store", str(self.store)]
        env = dict(os.environ, PYTHONPATH=str(self.stage))
        deadline = time.monotonic() + timeout
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log)
        self.port = self._read_port(deadline)
        while True:
            try:
                status, _body = send(self.port, "GET", "/readyz", timeout=5)
            except OSError:
                status = 0
            if status == 200:
                self.ready_seconds = time.perf_counter() - started
                return self.ready_seconds
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError(f"server {self.log_path.name} never "
                                   "became ready")
            time.sleep(0.002)

    def _read_port(self, deadline: float) -> int:
        stdout = self.process.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server {self.log_path.name} did not "
                                   "report its port")
            ready, _w, _x = select.select([stdout], [], [], remaining)
            if ready:
                chunk = os.read(stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        # "serving on 127.0.0.1:PORT (store: ...)"
        address = line.decode().split()[2]
        return int(address.rsplit(":", 1)[1])

    def dump(self, timeout: float = 60.0) -> dict:
        """Ask the live server for its state (SIGUSR1) and return it."""
        if self.dump_path.exists():
            self.dump_path.unlink()
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.dump_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server state dump timed out")
            time.sleep(0.005)
        return json.loads(self.dump_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        """SIGKILL: no drain, no flush — what a crash leaves behind."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        self._reap(30)

    def stop(self, timeout: float = 60.0) -> dict:
        """SIGTERM (graceful drain) and return the exit-time state dump."""
        if self.dump_path.exists():
            self.dump_path.unlink()
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        self._reap(timeout)
        if self.dump_path.exists():
            return json.loads(self.dump_path.read_text(encoding="utf-8"))
        return {}

    def _reap(self, timeout: float) -> None:
        if self.process is None:
            return
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()


# --------------------------------------------------------------------- #
# client
# --------------------------------------------------------------------- #
def send(port: int, method: str, path: str, body: bytes | None = None,
         headers: dict | None = None, timeout: float = 60.0
         ) -> tuple[int, bytes]:
    """One HTTP exchange on a fresh connection (the service speaks 1.0)."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def get_json(port: int, path: str) -> dict:
    status, body = send(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


@dataclass
class Request:
    """One pre-encoded request of a plan."""

    path: str
    body: bytes
    headers: dict
    tag: object = None


@dataclass
class Reply:
    """What the client saw for one request (times in ns, perf_counter)."""

    request: Request
    rid: int
    client: int
    start: int
    end: int
    status: int
    body: bytes = b""
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class LoopResult:
    replies: list = field(default_factory=list)
    wall_ns: int = 0
    busy_ns: list = field(default_factory=list)


def closed_loop(port: int, plans, *, until: float | None = None,
                tracer=None) -> LoopResult:
    """Run one closed-loop client thread per plan.

    A thread sends its plan's requests in order, each after the previous
    reply.  With ``until`` (a ``time.perf_counter`` instant) a thread
    stops early once it passes it and recycles its plan otherwise, so the
    run is bounded by time; without it every plan runs to its end.  With
    a ``tracer`` each request gets a ``client.request`` span whose id the
    server's spans hang off.
    """
    replies: list[list[Reply]] = [[] for _ in plans]
    busy = [0] * len(plans)

    def worker(client: int, plan) -> None:
        out = replies[client]
        position = 0
        while position < len(plan) or until is not None:
            if until is not None:
                if time.perf_counter() >= until:
                    return
                request = plan[position % len(plan)]
            else:
                request = plan[position]
            position += 1
            rid = (client + 1) * RID_STRIDE + position
            headers = dict(request.headers)
            headers[REQUEST_HEADER] = str(rid)
            token = None
            if tracer is not None:
                tracer.adopt(rid, 0)
                token = tracer.begin("client.request")
            start = time.perf_counter_ns()
            try:
                status, body = send(port, "POST", request.path, request.body,
                                    headers)
                error = ""
            except (OSError, http.client.HTTPException) as exc:
                status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
            if token is not None:
                tracer.end(token)
            busy[client] += end - start
            out.append(Reply(request, rid, client, start, end, status, body,
                             error))

    threads = [threading.Thread(target=worker, args=(client, plan),
                                name=f"bench-client-{client}")
               for client, plan in enumerate(plans)]
    started = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter_ns() - started
    merged = sorted((reply for out in replies for reply in out),
                    key=lambda reply: reply.start)
    return LoopResult(replies=merged, wall_ns=wall, busy_ns=busy)
