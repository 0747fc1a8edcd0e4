"""The ``build`` workload, run in its own process by ``run.py``.

``python perfbench/build_workload.py CSV SECONDS TRACE`` prints one JSON
object: set-up times, the timed serial (``workers=None``) and parallel
(``workers=nproc``) ``Tabula.initialize()`` calls, this process's peak
RSS, per-layer metrics when traced, and check failures.

Serial and parallel builds alternate until the next one would overrun
the window (at least one of each). Small warm-up builds run first, so lazy set-up
(imports, first pool) is not timed.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from measure import BUILD_ATTRS, LOSS, TARGET, THETA  # noqa: E402

#: CSV loads; ``setup_s`` is their median.
SETUPS = 5
WARMUP_ROWS = 20_000


def main(csv: str, seconds: float, trace: bool) -> dict:
    measure.use_program()
    from repro.core.loss.registry import LossRegistry
    from repro.core.tabula import Tabula, TabulaConfig
    from repro.engine.io import read_csv
    from repro.engine.schema import ColumnType

    nproc = len(os.sched_getaffinity(0))
    setup = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        table = read_csv(csv, types={a: ColumnType.CATEGORY for a in BUILD_ATTRS})
        setup.append(time.perf_counter() - started)
    loss = LossRegistry().bind(LOSS, (TARGET,))

    def build(rows, workers):
        tabula = Tabula(rows, TabulaConfig(cubed_attrs=BUILD_ATTRS, threshold=THETA, loss=loss))
        started = time.perf_counter()
        report = tabula.initialize(workers=workers)
        return time.perf_counter() - started, tabula, report

    # The warm-up builds also carry the worker-count invariance check.
    head = table.head(WARMUP_ROWS)
    build(head, None)
    invariance = [build(head, w)[1].store.content_digest() for w in (1, nproc)]

    timings = {}
    digests = {"serial": [], "parallel": []}
    kept = {}

    def window(budget: float, phase: str) -> None:
        spent = last = 0.0
        for kind, workers in itertools.cycle((("serial", None), ("parallel", nproc))):
            done = {k for k in ("serial", "parallel") if timings.get(f"{phase}:{k}")}
            if len(done) == 2 and spent + last > budget:
                return
            # Only the latest build of each kind stays alive (for the
            # checks), and collecting first keeps the RSS peak repeatable.
            kept.pop(kind, None)
            gc.collect()
            last, tabula, report = build(table, workers)
            spent += last
            timings.setdefault(f"{phase}:{kind}", []).append(last)
            digests[kind].append(tabula.store.content_digest())
            kept[kind] = (tabula, report)

    if trace:
        window(seconds / 2, "untraced")
        peak_untraced = measure.vm_hwm_mb(os.getpid())
        recorder = spans.SpanRecorder()
        spans.install(recorder)
        window(seconds / 2, "traced")
        traced_layers = layers.build_layers(recorder.spans)
    else:
        window(seconds, "window")
    peak = measure.vm_hwm_mb(os.getpid())

    failures = checks.digest_failures(digests["serial"], digests["parallel"], *invariance)
    means = checks.cell_means(table, BUILD_ATTRS, TARGET)
    for kind, (tabula, report) in kept.items():
        failures += [
            f"{kind} build: {f}"
            for f in checks.loss_failures(tabula, means, BUILD_ATTRS, TARGET, THETA, report.num_iceberg_cells)
        ]
        if report.num_cells != len(means):
            failures.append(f"{kind} build: {report.num_cells} cells, the raw rows have {len(means)}")

    _, report = kept["parallel"]
    out = {
        "setup_s": setup,
        "timings": timings,
        "peak_rss_mb": peak,
        "failures": failures,
        "cells": report.num_cells,
        "iceberg_cells": report.num_iceberg_cells,
        "samples": report.num_representatives,
        "nproc": nproc,
    }
    if trace:
        metrics = layers.zero_layers()
        metrics.update(traced_layers)
        metrics["core.parallel.pool_stages"] = float(
            sum(getattr(e, "mode", "") == "pool" for e in (report.dry_run_execution, report.real_run_execution))
        )
        out["layers"] = metrics
        out["peak_rss_untraced_mb"] = peak_untraced
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
    print(json.dumps(result))
