"""The service under load: its own process, driven by a closed loop.

:class:`ServerProcess` starts ``proctriage serve`` in a child process
bound to an ephemeral port, with stdout and stderr sent to files so a
burst of parse warnings can never fill a pipe and stall the server.
:func:`closed_loop` drives it with a fixed number of keep-alive
``http.client`` connections, each sending its next request only after
the previous response has been read and checked.
"""
from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import Tracer

_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")
START_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """``python -m proctriage.cli serve MODEL --data-dir DIR --listen 127.0.0.1:0``."""

    def __init__(self, src_dir: Path, model_path: Path, data_dir: Path, log_dir: Path):
        self.src_dir = src_dir
        self.model_path = model_path
        self.data_dir = data_dir
        self.log_dir = log_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._starts = 0

    def start(self) -> float:
        """Spawn the server; return seconds from spawn to its first 200 response."""
        self._starts += 1
        self.log_dir.mkdir(parents=True, exist_ok=True)
        out_path = self.log_dir / f"serve-{self._starts}.out"
        err_path = self.log_dir / f"serve-{self._starts}.err"
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        cmd = [sys.executable, "-m", "proctriage.cli", "serve", str(self.model_path),
               "--data-dir", str(self.data_dir), "--listen", "127.0.0.1:0"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                         stdin=subprocess.DEVNULL)
        self.port = self._wait_for_port(out_path, err_path, t0)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/v1/model")
            resp = conn.getresponse()
            resp.read()
        finally:
            conn.close()
        elapsed = time.perf_counter() - t0
        if resp.status != 200:
            raise ServerError(f"GET /v1/model answered {resp.status}")
        return elapsed

    def _wait_for_port(self, out_path: Path, err_path: Path, t0: float) -> int:
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            match = _LISTENING.search(out_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
                raise ServerError(f"server exited with {self.proc.returncode}:\n{tail}")
            time.sleep(0.002)
        raise ServerError(f"server did not listen within {START_TIMEOUT_S:.0f} s")

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set size (VmHWM), in MiB."""
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def vm_hwm_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for process {pid}")


@dataclass
class LoadResult:
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    failures: list[str] = field(default_factory=list)


# check(body_index, response document) -> None when the response is
# right, else a one-line reason
Check = Callable[[int, dict], "str | None"]


def closed_loop(port: int, path: str, bodies: list[bytes], orders: list[list[int]],
                check: Check, seconds: float, tracer: Tracer, span_name: str,
                warmup: int = 2) -> LoadResult:
    """Drive ``POST path`` from ``len(orders)`` keep-alive connections.

    Connection ``c`` sends ``bodies[i]`` for ``i`` in ``orders[c]``, cycling,
    each request waiting for the previous response.  The first ``warmup``
    requests per connection are checked and counted but not timed.
    Requests are started until ``seconds`` have passed after all
    connections are warm.  A non-2xx status, a connection error or a
    failed check counts as failed.
    """
    result = LoadResult()
    lock = threading.Lock()
    start = [0.0]
    ready = threading.Barrier(len(orders),
                              action=lambda: start.__setitem__(0, time.perf_counter()))
    ends: list[float] = []

    def client(c: int) -> None:
        order = orders[c]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        latencies, attempted, failed, reasons = [], 0, 0, []

        def one(i: int) -> str | None:
            conn.request("POST", path, body=bodies[i],
                         headers={"Content-Type": "text/plain; charset=utf-8"})
            resp = conn.getresponse()
            payload = resp.read()
            if not 200 <= resp.status < 300:
                return f"status {resp.status}: {payload[:200]!r}"
            try:
                doc = json.loads(payload)
            except ValueError:
                return f"response is not JSON: {payload[:200]!r}"
            return check(i, doc)

        try:
            for n in range(warmup):
                i = order[n % len(order)]
                attempted += 1
                reason = one(i)
                if reason:
                    failed += 1
                    reasons.append(f"warm-up body {i}: {reason}")
            ready.wait()
            deadline = start[0] + seconds
            n = warmup
            while time.perf_counter() < deadline:
                i = order[n % len(order)]
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span(span_name, f"c{c}-{n}"):
                        reason = one(i)
                except (OSError, http.client.HTTPException) as err:
                    reason = f"connection error: {err!r}"
                    conn.close()
                latencies.append(time.perf_counter() - t0)
                n += 1
                if reason:
                    failed += 1
                    reasons.append(f"body {i}: {reason}")
        except (OSError, http.client.HTTPException) as err:
            ready.abort()
            reasons.append(f"connection {c}: {err}")
        except threading.BrokenBarrierError:
            pass
        finally:
            conn.close()
            with lock:
                result.latencies_s.extend(latencies)
                result.attempted += attempted
                result.failed += failed
                result.failures.extend(reasons[:5])
                ends.append(time.perf_counter())

    threads = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(len(orders))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 120)
    if any(t.is_alive() for t in threads):
        raise ServerError("load generator did not finish")
    if ready.broken:
        raise ServerError("; ".join(result.failures) or "load generator failed to start")
    result.elapsed_s = max(ends) - start[0]
    return result
