"""Repository benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` (``--workload all`` runs every workload).

Workloads (see README.md for why each exists):

- ``dashboard`` — read-only HTTP dashboard, closed loop on 2 keep-alive
  connections against ``repro serve``;
- ``viewport-live`` — viewport batches on one connection beside an
  open-loop ``POST /ingest`` stream on another (``serve --ingest``);
- ``build`` — ``Tabula.initialize()`` at 100k rows x 5 attributes,
  serial and ``workers=nproc``.

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones (spans recorded by perfbench's own launcher) plus the tracing
overhead. Exit status is 0 when every correctness check passed, 1 when
one failed, 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import measure  # noqa: E402
from measure import HERE, ROOT, Children, median  # noqa: E402

WORKLOADS = ("dashboard", "viewport-live", "build")
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
}
#: What the generic end-to-end names mean on each workload.
OP = {
    "dashboard": "GET /query (op_tail = p99)",
    "viewport-live": "POST /query batch of 4 cells in one bbox (op_tail = p90)",
    "build": "Tabula.initialize(): op_p50 = serial median, op_tail = median of serial and workers=nproc calls",
}


class Result:
    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.named: Dict[str, Any] = {}
        self.properties: Dict[str, float] = {}
        self.validity: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []


def run_serving(workload: str, seed: int, seconds: float, trace: bool, work: Path, children: Children) -> Result:
    import serving_load as sl
    from repro.engine.io import write_csv

    table = sl.table_for(seed)
    csv = work / "taxi.csv"
    write_csv(table, csv)
    ingest = workload == "viewport-live"
    if ingest:
        steps = sl.viewport_steps(table, seed)
        drive = lambda server, secs: sl.run_viewport(server, steps, seed, secs)  # noqa: E731
    else:
        queries = sl.dashboard_queries(table, seed)
        drive = lambda server, secs: sl.run_dashboard(server, queries, csv, secs)  # noqa: E731
    result = Result()
    if not trace:
        setups = []
        for r in range(SETUPS):
            server = sl.start_server(children, work, csv, f"r{r}", ingest, traced=False)
            setups.append(server.setup_s)
            if r < SETUPS - 1:
                sl.stop_server(children, server)
        outcome = drive(server, seconds)
        peak = sl.stop_server(children, server)
        result.metrics = {**outcome.e2e, "setup_s": median(setups), "peak_rss_mb": peak}
        result.named = {**outcome.named, "setup_s": (median(setups), "s"), "peak_rss_mb": (peak, "MiB")}
        result.named["failed_frac"] = (outcome.failed / max(outcome.attempted, 1), "ratio")
        result.validity["setup_s_samples"] = [round(s, 4) for s in setups]
        outcomes = [outcome]
    else:
        untraced = sl.start_server(children, work, csv, "untraced", ingest, traced=False)
        base = drive(untraced, seconds / 2)
        base_peak = sl.stop_server(children, untraced)
        server = sl.start_server(children, work, csv, "traced", ingest, traced=True)
        traced = drive(server, seconds / 2)
        peak = sl.stop_server(children, server)
        result.metrics = sl.layer_metrics(server, traced, work)
        for name in ("op_p50_ms", "op_tail_ms", "ops_per_s"):
            result.metrics[f"trace.overhead.{name}"] = traced.e2e[name] - base.e2e[name]
        result.metrics["trace.overhead.setup_s"] = server.setup_s - untraced.setup_s
        result.metrics["trace.overhead.peak_rss_mb"] = peak - base_peak
        outcome = traced
        outcomes = [base, traced]
    result.properties = outcome.properties
    result.validity.update(outcome.validity)
    for o in outcomes:
        result.attempted += o.attempted
        result.failed += o.failed
        result.failures += o.failures
    return result


def run_build(seed: int, seconds: float, trace: bool, work: Path, children: Children) -> Result:
    from repro.data import generate_nyctaxi
    from repro.engine.io import write_csv

    csv = work / "taxi.csv"
    write_csv(generate_nyctaxi(num_rows=measure.ROWS, seed=seed), csv)
    log = work / "build.log"
    argv = [sys.executable, str(HERE / "build_workload.py"), str(csv), str(seconds), "1" if trace else "0"]
    proc = children.start(argv, log, work)
    try:
        code = proc.wait(timeout=170)
    finally:
        children.stop(proc)
    lines = log.read_text().strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"build workload exited {code}; see {log}:\n" + "\n".join(lines[-20:]))
    doc = json.loads(lines[-1])
    timings = doc["timings"]
    result = Result()
    phase = "untraced" if trace else "window"
    serial, parallel = timings[f"{phase}:serial"], timings[f"{phase}:parallel"]

    def e2e(phase: str) -> Dict[str, float]:
        serial, parallel = timings[f"{phase}:serial"], timings[f"{phase}:parallel"]
        calls = serial + parallel
        return {
            "op_p50_ms": median(serial) * 1000.0,
            "op_tail_ms": median(calls) * 1000.0,
            "ops_per_s": len(calls) / sum(calls),
        }

    if trace:
        result.metrics = doc["layers"]
        for name, value in e2e("traced").items():
            result.metrics[f"trace.overhead.{name}"] = value - e2e(phase)[name]
        result.metrics["trace.overhead.peak_rss_mb"] = doc["peak_rss_mb"] - doc["peak_rss_untraced_mb"]
        # The CSV loads run before the recorder is installed; no client process.
        result.metrics["trace.overhead.setup_s"] = 0.0
        result.metrics["client.cpu_frac"] = 0.0
    else:
        result.metrics = {**e2e(phase), "setup_s": median(doc["setup_s"]), "peak_rss_mb": doc["peak_rss_mb"]}
    result.named = {
        "build_s": (median(serial), "s"),
        "build_parallel_s": (median(parallel), "s"),
        "setup_s": (median(doc["setup_s"]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
        "failed_frac": (1.0 if doc["failures"] else 0.0, "ratio"),
    }
    result.properties = {
        "cells": doc["cells"],
        "iceberg_cells": doc["iceberg_cells"],
        "samples": doc["samples"],
        "serial_builds": len(serial),
        "parallel_builds": len(parallel),
    }
    result.validity = {"setup_s_samples": [round(s, 4) for s in doc["setup_s"]]}
    result.attempted = sum(len(v) for v in timings.values())
    result.failures = doc["failures"]
    result.failed = result.attempted if doc["failures"] else 0
    return result


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    children = Children()
    try:
        if workload == "build":
            result = run_build(seed, seconds, trace, work, children)
        else:
            result = run_serving(workload, seed, seconds, trace, work, children)
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    result.validity.update(
        {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
        }
    )
    cpu = result.validity.get("client_cpu_frac")
    if cpu is not None and cpu >= 0.9:
        result.validity["invalid"] = f"client used {cpu:.2f} of a core: it measures itself"
    return result


def report(workload: str, result: Result, trace: bool) -> None:
    print(f"== {workload} (op = {OP[workload]})")
    for name, (value, unit) in result.named.items():
        print(f"metric {workload} {name} = {value:.6g} {unit}")
    units = layers.PER_LAYER if trace else END_TO_END
    for name in units:
        print(f"{'layer' if trace else 'e2e'} {workload} {name} = {result.metrics[name]:.6g} {units[name]}")
    for name, value in result.properties.items():
        print(f"property {workload} {name} = {value:.6g}")
    for name, value in result.validity.items():
        print(f"validity {workload} {name} = {value}")
    print(f"valid {workload} = {'invalid' not in result.validity}")
    for failure in result.failures[:50]:
        print(f"CHECK FAILED {workload}: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (measure.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {measure.SRC}", file=sys.stderr)
        return 2
    measure.use_program()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = layers.PER_LAYER if trace else END_TO_END
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            result = run_one(workload, args.seed, args.seconds, trace)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {workload} could not run: {exc}", file=sys.stderr)
            return 2
        report(workload, result, trace)
        summary["correct"] = summary["correct"] and not result.failures
        summary["attempted"] += result.attempted
        summary["failed"] += result.failed
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, unit in units.items():
            summary["metrics"][prefix + name] = {"value": result.metrics[name], "unit": unit}
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
