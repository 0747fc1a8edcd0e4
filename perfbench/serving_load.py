"""The two HTTP workloads: ``dashboard`` and ``viewport-live``.

Load comes from this one process: two keep-alive connections (the box
has two cores), against a separate ``repro serve`` process, so client
and server do not share an interpreter lock. Responses are kept as
bytes inside the timed window and checked after it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

import checks
import layers
from measure import (
    LOSS,
    ROWS,
    SERVE_ATTRS,
    TARGET,
    THETA,
    HERE,
    Children,
    cpu_seconds,
    free_port,
    http_json,
    percentile,
    vm_hwm_mb,
    wait_ready,
)

CONNECTIONS = 2
LIMIT = 20
#: viewport-live: cells per pan/zoom step, all sharing the step's bbox.
CELLS_PER_STEP = 4
#: viewport-live writer: 100-row batches at a rate the parent commit
#: sustains next to the reader without a growing backlog over a window.
#: (Applying a batch rescans the whole maintenance journal, so apply
#: cost grows with the batches already applied; at 500 rows/s the
#: backlog reached seconds within 23 s.)
INGEST_BATCH_ROWS = 100
INGEST_ROWS_PER_S = 300
#: Acknowledged batches a run needs for its ingest p90.
MIN_ACKS = 50
#: viewport-live: steps replayed after catch-up for the narrowing check.
REPLAY_STEPS = 24


@dataclass
class Server:
    proc: Any
    port: int
    cube: Path
    spans: Optional[Path]
    setup_s: float


def start_server(
    children: Children, work: Path, csv: Path, tag: str, ingest: bool, traced: bool
) -> Server:
    """``repro build`` then ``repro serve`` until ``/readyz`` is 200 (timed)."""
    cube = work / f"cube-{tag}.json"
    spans = work / f"spans-serve-{tag}.json" if traced else None

    def program(name: str) -> List[str]:
        if traced:
            return [sys.executable, str(HERE / "launch.py"), str(work / f"spans-{name}-{tag}.json")]
        return [sys.executable, "-m", "repro.cli"]

    build = program("build") + [
        "build", "--table", str(csv), "--attrs", ",".join(SERVE_ATTRS), "--loss", LOSS,
        "--target", TARGET, "--theta", str(THETA), "--out", str(cube),
    ]
    port = free_port()
    serve = program("serve") + [
        "serve", "--cube", str(cube), "--table", str(csv), "--port", str(port), "--quiet",
    ]
    if ingest:
        serve += ["--ingest", str(work / f"ingest-{tag}")]
    log = work / f"server-{tag}.log"
    started = time.perf_counter()
    children.run(build, log, work, timeout=150)
    proc = children.start(serve, log, work)
    wait_ready(port, proc)
    return Server(proc, port, cube, spans, time.perf_counter() - started)


def stop_server(children: Children, server: Server) -> float:
    """Peak RSS in MiB, then a graceful stop (which dumps spans)."""
    peak = vm_hwm_mb(server.proc.pid)
    code = children.stop(server.proc)
    if code != 0:
        raise RuntimeError(f"server exited {code}")
    return peak


def _strip_elapsed(body: bytes) -> bytes:
    """The body without its timing field, so equal answers share bytes."""
    start = body.find(b'"elapsed_seconds": ')
    if start < 0:
        return body
    end = body.find(b", ", start)
    return body[:start] + body[end + 2:] if end > 0 else body


@dataclass
class Exchange:
    """One request as the client saw it."""

    index: int
    rid: str
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.sent


def _closed_loop(
    port: int, requests: List[Tuple[str, Optional[bytes]]], end: float,
    counter: "itertools.count[int]", out: List[Exchange], interned: Dict[bytes, bytes],
    prefix: str,
) -> None:
    """Send the next request only after the previous answer arrived."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        while time.perf_counter() < end:
            i = next(counter)
            target, payload = requests[i % len(requests)]
            rid = f"{prefix}{i}"
            headers = {"X-Request-Id": rid}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            sent = time.perf_counter()
            try:
                conn.request("POST" if payload is not None else "GET", target, body=payload, headers=headers)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                body, status = b"", 0
            done = time.perf_counter()
            if payload is None:
                key = _strip_elapsed(body)
                body = interned.setdefault(key, key)
            out.append(Exchange(i, rid, sent, done, status, body))
    finally:
        conn.close()


@dataclass
class Outcome:
    """What one serving window measured, before it is turned into metrics."""

    e2e: Dict[str, float]
    named: Dict[str, Tuple[float, str]]
    properties: Dict[str, float]
    validity: Dict[str, Any]
    attempted: int
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    latencies: Dict[str, float] = field(default_factory=dict)
    stats_delta: Dict[str, float] = field(default_factory=dict)


def _stats(port: int) -> Dict[str, Any]:
    status, body = http_json("GET", port, "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return body


def _counter_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    delta = {"shed": after["outcomes"]["shed"] - before["outcomes"]["shed"]}
    if "ingest" in after:
        b, a = before["ingest"]["counters"], after["ingest"]["counters"]
        delta.update({k: a[k] - b[k] for k in ("accepted", "fsyncs", "backpressured")})
    return delta


# ---------------------------------------------------------------------------
# dashboard
# ---------------------------------------------------------------------------
def dashboard_queries(table: Any, seed: int) -> List[Dict[str, object]]:
    from repro.data.workload import generate_workload

    return list(generate_workload(table, SERVE_ATTRS, num_queries=4000, seed=seed, distribution="zipf"))


def run_dashboard(server: Server, queries: List[Dict[str, object]], csv: Path, seconds: float) -> Outcome:
    requests = [("/query?" + urlencode({**q, "limit": LIMIT}), None) for q in queries]
    before = _stats(server.port)
    exchanges: List[Exchange] = []
    interned: Dict[bytes, bytes] = {}
    counter = itertools.count()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    end = wall0 + seconds
    threads = [
        threading.Thread(
            target=_closed_loop,
            args=(server.port, requests, end, counter, exchanges, interned, f"c{c}-"),
            daemon=True,
        )
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall0
    cpu_frac = (cpu_seconds() - cpu0) / wall
    delta = _counter_delta(before, _stats(server.port))
    exchanges.sort(key=lambda e: e.index)
    latencies_ms = [e.latency * 1000.0 for e in exchanges]
    ok = [e for e in exchanges if e.status == 200]
    decoded = {key: json.loads(key) for key in interned if key}
    answers = [decoded[e.body] for e in ok]
    e2e = {
        "op_p50_ms": percentile(latencies_ms, 0.5),
        "op_tail_ms": percentile(latencies_ms, 0.99),
        "ops_per_s": len(ok) / wall,
    }
    named = {
        "query_qps": (len(ok) / wall, "req/s"),
        "query_p50_ms": (e2e["op_p50_ms"], "ms"),
        "query_p99_ms": (e2e["op_tail_ms"], "ms"),
    }
    properties = {
        "requests": len(exchanges),
        "repeat_cell_share": _repeat_share([tuple(sorted(queries[e.index % len(queries)].items())) for e in exchanges]),
        "global_sample_share": sum(a.get("source") == "global" for a in answers) / max(len(answers), 1),
        "mean_rows_per_answer": sum(a.get("num_rows", 0) for a in answers) / max(len(answers), 1),
        "distinct_geometry_share": 0.0,
        "offered_ingest_rows_per_s": 0.0,
    }
    validity = {"client_cpu_frac": cpu_frac, "p99_samples": len(exchanges)}
    outcome = Outcome(e2e, named, properties, validity, attempted=len(exchanges), stats_delta=delta)
    outcome.latencies = {e.rid: e.latency for e in exchanges}
    outcome.failed, outcome.failures = _check_dashboard(server.cube, csv, exchanges, queries, decoded)
    if len(exchanges) < 1000:
        validity["invalid"] = f"only {len(exchanges)} requests for a p99 (need 1000)"
    return outcome


def _check_dashboard(cube: Path, csv: Path, exchanges: List[Exchange], queries, decoded) -> Tuple[int, List[str]]:
    """(failed requests, check failures) against ``load_cube`` + ``Tabula.query``."""
    from repro.core.persistence import load_cube
    from repro.engine.io import read_csv
    from repro.engine.schema import ColumnType

    table = read_csv(csv, types={a: ColumnType.CATEGORY for a in SERVE_ATTRS})
    tabula = load_cube(cube, table)
    reference: Dict[Tuple, Dict[str, object]] = {}
    failed = 0
    failures: List[str] = []
    for e in exchanges:
        cell = queries[e.index % len(queries)]
        key = tuple(sorted(cell.items()))
        if key not in reference:
            reference[key] = checks.expected_answer(tabula, cell, LIMIT)
        if e.status != 200:
            failed += 1
            continue
        problems = checks.dashboard_failures(e.status, decoded[e.body], reference[key])
        failed += bool(problems)
        failures += [f"dashboard request {e.rid} {cell}: {p}" for p in problems]
    return failed, failures


# ---------------------------------------------------------------------------
# viewport-live
# ---------------------------------------------------------------------------
@dataclass
class ViewportSteps:
    cells: List[List[Dict[str, object]]]
    boxes: List[Dict[str, float]]

    def payload(self, k: int, geometry: bool = True) -> bytes:
        body: Dict[str, object] = {"queries": self.cells[k], "limit": LIMIT}
        if geometry:
            body["geometry"] = self.boxes[k]
        return json.dumps(body).encode("utf-8")


def viewport_steps(table: Any, seed: int, steps: int = 8000) -> ViewportSteps:
    """Pan/zoom steps; each asks ``CELLS_PER_STEP`` cells in one bbox."""
    from repro.data.workload import generate_viewport_workload

    sessions = [
        generate_viewport_workload(
            table, SERVE_ATTRS, num_queries=steps, seed=seed * CELLS_PER_STEP + j, min_zoom=1
        )
        for j in range(CELLS_PER_STEP)
    ]
    cells = [[dict(s.queries[k]) for s in sessions] for k in range(steps)]
    return ViewportSteps(cells, [dict(g) for g in sessions[0].geometries])


def ingest_payloads(seed: int, batches: int) -> List[bytes]:
    """Distinct 100-row batches, each with its own idempotency seed."""
    from repro.data import generate_nyctaxi

    rows = generate_nyctaxi(num_rows=INGEST_BATCH_ROWS * batches, seed=10_000 + seed).to_pydict()
    out = []
    for k in range(batches):
        lo, hi = k * INGEST_BATCH_ROWS, (k + 1) * INGEST_BATCH_ROWS
        body = {"rows": {c: v[lo:hi] for c, v in rows.items()}, "seed": seed * 1_000_000 + k, "wait_durable": True}
        out.append(json.dumps(body).encode("utf-8"))
    return out


@dataclass
class WriterLog:
    lateness: List[float] = field(default_factory=list)
    ack: List[float] = field(default_factory=list)
    apply_lag: List[float] = field(default_factory=list)
    acked_batches: int = 0
    failed: int = 0
    offered_rows: int = 0
    backlog_at_end: int = 0


def _writer(port: int, payloads: List[bytes], start: float, end: float, log: WriterLog) -> None:
    """Open loop: batch k is due at ``start + k * interval``, sent then
    regardless of how the server is doing; between sends the same
    connection polls ``/readyz`` for the applied watermark."""
    interval = INGEST_BATCH_ROWS / INGEST_ROWS_PER_S
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    pending: Dict[int, float] = {}  # seq -> ack time
    poll_cost = 0.0

    def poll() -> None:
        nonlocal poll_cost
        started = time.perf_counter()
        try:
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            marks = json.loads(response.read())["ingest"]["watermarks"]
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            conn.close()
            return
        now = time.perf_counter()
        poll_cost = now - started
        for seq in [s for s in pending if s <= marks["applied_seq"]]:
            log.apply_lag.append(now - pending.pop(seq))

    try:
        for k, payload in enumerate(payloads):
            due = start + k * interval
            if due >= end:
                break
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                # Poll only when the answer is expected before the send is due.
                if pending and now + poll_cost < due:
                    poll()
                    time.sleep(min(0.005, max(0.0, due - time.perf_counter())))
                else:
                    time.sleep(due - now)
            log.lateness.append(time.perf_counter() - due)
            log.offered_rows += INGEST_BATCH_ROWS
            try:
                conn.request("POST", "/ingest", body=payload, headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                status, body = response.status, json.loads(response.read() or b"{}")
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                status, body = 0, {}
            acked = time.perf_counter()
            if status == 200 and body.get("durable"):
                log.acked_batches += 1
                log.ack.append(acked - due)
                pending[int(body["seq"])] = acked
            else:
                log.failed += 1
        log.backlog_at_end = len(pending)
        catch_up = time.perf_counter() + 60.0
        while pending and time.perf_counter() < catch_up:
            poll()
            time.sleep(0.005)
        log.failed += len(pending)
    finally:
        conn.close()


def run_viewport(server: Server, steps: ViewportSteps, seed: int, seconds: float) -> Outcome:
    batches = int(seconds * INGEST_ROWS_PER_S / INGEST_BATCH_ROWS) + 2
    payloads = ingest_payloads(seed, batches)
    requests = [("/query", steps.payload(k)) for k in range(len(steps.boxes))]
    before = _stats(server.port)
    reads: List[Exchange] = []
    log = WriterLog()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    end = wall0 + seconds
    reader = threading.Thread(
        target=_closed_loop,
        args=(server.port, requests, end, itertools.count(), reads, {}, "v"),
        daemon=True,
    )
    writer = threading.Thread(target=_writer, args=(server.port, payloads, wall0, end, log), daemon=True)
    reader.start()
    writer.start()
    reader.join()
    wall = time.perf_counter() - wall0
    cpu_frac = (cpu_seconds() - cpu0) / wall
    writer.join()  # includes catch-up: every acknowledged batch applied
    after = _stats(server.port)
    delta = _counter_delta(before, after)

    failures: List[str] = []
    answers: List[Dict[str, Any]] = []
    failed = log.failed
    for e in reads:
        if e.status != 200:
            failed += 1
            continue
        body = json.loads(e.body)
        k = e.index % len(steps.boxes)
        problems = checks.viewport_failures(e.status, body, steps.boxes[k], CELLS_PER_STEP)
        failed += bool(problems)
        failures += [f"viewport request {e.rid}: {p}" for p in problems]
        answers.extend(body.get("results", []))
    counters = after["ingest"]["counters"]
    failures += [
        f"ingest: {p}"
        for p in checks.ingest_failures(counters, log.acked_batches, log.acked_batches * INGEST_BATCH_ROWS)
    ]
    failures += _replay_narrowing(server.port, steps, [e.index for e in reads], seed)

    latencies_ms = [e.latency * 1000.0 for e in reads]
    ok = [e for e in reads if e.status == 200]
    ack_ms = [a * 1000.0 for a in log.ack]
    lag_ms = [a * 1000.0 for a in log.apply_lag]
    e2e = {
        "op_p50_ms": percentile(latencies_ms, 0.5),
        "op_tail_ms": percentile(latencies_ms, 0.9),
        "ops_per_s": len(ok) / wall,
    }
    named = {
        "query_qps": (len(ok) / wall, "req/s"),
        "query_p50_ms": (e2e["op_p50_ms"], "ms"),
        "query_p90_ms": (e2e["op_tail_ms"], "ms"),
        "ingest_ack_p50_ms": (percentile(ack_ms, 0.5), "ms"),
        "ingest_ack_p90_ms": (percentile(ack_ms, 0.9), "ms"),
        "apply_lag_p50_ms": (percentile(lag_ms, 0.5), "ms"),
        "apply_lag_p90_ms": (percentile(lag_ms, 0.9), "ms"),
    }
    n = max(len(reads), 1)
    boxes = [json.dumps(steps.boxes[e.index % len(steps.boxes)], sort_keys=True) for e in reads]
    properties = {
        "requests": len(reads),
        "ingest_batches": len(log.lateness),
        "repeat_cell_share": _repeat_share(
            [tuple(sorted(c.items())) for e in reads for c in steps.cells[e.index % len(steps.cells)]]
        ),
        "global_sample_share": sum(a.get("source") == "global" for a in answers) / max(len(answers), 1),
        "mean_rows_per_answer": sum(a.get("num_rows", 0) for a in answers) / max(len(answers), 1),
        "distinct_geometry_share": len(set(boxes)) / n,
        "offered_ingest_rows_per_s": log.offered_rows / wall,
    }
    interval = INGEST_BATCH_ROWS / INGEST_ROWS_PER_S
    validity: Dict[str, Any] = {
        "client_cpu_frac": cpu_frac,
        "ingest_late_worst_ms": max(log.lateness, default=0.0) * 1000.0,
        "ingest_late_p90_ms": percentile(log.lateness, 0.9) * 1000.0,
        "ingest_backlog_at_end": log.backlog_at_end,
        "p90_samples": len(reads),
        "ack_samples": len(log.ack),
    }
    if log.lateness and max(log.lateness) > interval:
        validity["invalid"] = "ingest generator fell behind its schedule by more than one interval"
    if log.backlog_at_end > 5:
        validity["invalid"] = f"{log.backlog_at_end} acknowledged batches unapplied at the end: backlog grew"
    if len(reads) < 100 or len(log.ack) < MIN_ACKS:
        validity["invalid"] = f"{len(reads)} batch reads / {len(log.ack)} acks (need 100 / {MIN_ACKS} for the p90s)"
    outcome = Outcome(
        e2e, named, properties, validity,
        attempted=len(reads) + len(log.lateness),
        failed=failed,
        failures=failures,
        latencies={e.rid: e.latency for e in reads},
        stats_delta=delta,
    )
    return outcome


def _repeat_share(keys: List[Tuple]) -> float:
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / max(len(keys), 1)


def _replay_narrowing(port: int, steps: ViewportSteps, issued: List[int], seed: int) -> List[str]:
    """With no writes in flight, ask seeded steps with and without the
    bbox: a CERTIFIED filtered answer must keep every sample row."""
    rng = random.Random(seed)
    chosen = rng.sample(sorted(set(issued)), min(REPLAY_STEPS, len(set(issued))))
    failures = []
    for k in chosen:
        k %= len(steps.boxes)
        s1, narrow = http_json("POST", port, "/query", json.loads(steps.payload(k)))
        s2, full = http_json("POST", port, "/query", json.loads(steps.payload(k, geometry=False)))
        problems = checks.viewport_failures(s1, narrow, steps.boxes[k], CELLS_PER_STEP)
        if s2 != 200:
            problems.append(f"unfiltered replay status {s2}")
        else:
            problems += checks.narrowing_failures(narrow, full)
        failures += [f"viewport replay step {k}: {p}" for p in problems]
    return failures


def layer_metrics(server: Server, outcome: Outcome, work: Path) -> Dict[str, float]:
    """Per-layer metrics of one traced serving window."""
    metrics = layers.zero_layers()
    build_spans = json.loads((work / server.spans.name.replace("serve", "build")).read_text())
    metrics.update(layers.build_layers(build_spans))
    serve_spans = json.loads(server.spans.read_text())
    metrics.update(layers.serving_layers(serve_spans, outcome.latencies))
    delta = outcome.stats_delta
    metrics["serving.gateway.shed"] = float(delta.get("shed", 0))
    metrics["ingest.backpressured"] = float(delta.get("backpressured", 0))
    if delta.get("fsyncs"):
        metrics["ingest.batches_per_fsync"] = delta["accepted"] / delta["fsyncs"]
    metrics["client.cpu_frac"] = outcome.validity["client_cpu_frac"]
    return metrics


def table_for(seed: int) -> Any:
    from repro.data import generate_nyctaxi

    return generate_nyctaxi(num_rows=ROWS, seed=seed)

