"""Shared helpers: percentiles, process control and the program's paths.

Every timing in the benchmark goes through :func:`percentile`, so the
client-side, server-side and per-layer numbers use one definition
(linear interpolation between closest ranks).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The served cube: ``dashboard`` and ``viewport-live``.
SERVE_ATTRS = ("payment_type", "rate_code", "passenger_count")
#: The built cube: ``build``.
BUILD_ATTRS = ("vendor_name", "pickup_weekday", "passenger_count", "payment_type", "rate_code")
LOSS = "mean_loss"
TARGET = "fare_amount"
THETA = 0.05
ROWS = 100_000


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SANITIZE", None)
    return env


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Children:
    """Every subprocess the benchmark starts, reaped on every exit path."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def start(self, argv: Sequence[str], log: Path, cwd: Path) -> subprocess.Popen:
        handle = open(log, "ab")
        try:
            proc = subprocess.Popen(
                list(argv), cwd=cwd, env=program_env(), stdout=handle, stderr=subprocess.STDOUT
            )
        finally:
            handle.close()
        self._procs.append(proc)
        return proc

    def run(self, argv: Sequence[str], log: Path, cwd: Path, timeout: float) -> None:
        proc = self.start(argv, log, cwd)
        try:
            code = proc.wait(timeout=timeout)
        finally:
            self.stop(proc)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[:4])} ... exited {code}; see {log}")

    def stop(self, proc: subprocess.Popen, grace: float = 20.0) -> Optional[int]:
        """SIGINT (graceful: drains and dumps spans), then SIGKILL."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        for proc in list(self._procs):
            self.stop(proc, grace=5.0)


def wait_ready(port: int, proc: subprocess.Popen, timeout: float = 120.0) -> None:
    """Poll ``/readyz`` until it answers 200."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited {proc.returncode} before becoming ready")
        try:
            status, _ = http_json("GET", port, "/readyz", timeout=1.0)
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.01)
    raise RuntimeError("server did not become ready")


def http_json(method: str, port: int, path: str, body: object = None, timeout: float = 30.0):
    """One request on a fresh connection: ``(status, decoded body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system
