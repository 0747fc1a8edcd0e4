"""The traced launcher records nested spans; layer metrics join them.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import layers
import measure
from repro.data import generate_nyctaxi
from repro.engine.io import write_csv


def test_launcher_records_build_spans_through_by_name_bindings(tmp_path):
    csv = tmp_path / "taxi.csv"
    write_csv(generate_nyctaxi(num_rows=3000, seed=3), csv)
    spans_path = tmp_path / "spans.json"
    argv = [
        sys.executable, str(measure.HERE / "launch.py"), str(spans_path),
        "build", "--table", str(csv), "--attrs", "payment_type,rate_code",
        "--target", "fare_amount", "--theta", "0.05", "--out", str(tmp_path / "cube.json"),
    ]
    subprocess.run(argv, check=True, env=measure.program_env(), capture_output=True, timeout=120)
    spans = json.loads(spans_path.read_text())
    by_id = {s[0]: s for s in spans}
    names = {s[2] for s in spans}
    assert {"core.tabula.initialize", "core.dryrun.dry_run", "core.realrun.real_run"} <= names
    # group_rows is bound by name in dryrun and realrun: both calls are traced.
    parents = {by_id[s[1]][2] for s in spans if s[2] == "engine.groupby.group_rows" and s[1] in by_id}
    assert {"core.dryrun.dry_run", "core.realrun.real_run"} <= parents
    metrics = layers.build_layers(spans)
    assert metrics["core.realrun.real_run_s"] > 0
    assert metrics["engine.groupby.group_rows_calls"] >= 2


def test_serving_layers_split_client_latency_into_handler_and_transport():
    spans = [
        # (id, parent, name, start, end, request id, extra)
        [1, None, "serving.http.handler", 0.0, 0.004, "r1", {"route": "/query"}],
        [2, 1, "serving.gateway", 0.001, 0.003, "r1", {}],
        [3, 2, "core.tabula.query", 0.0015, 0.0020, "r1", {}],
        [4, 1, "serving.http.encode", 0.0031, 0.0036, "r1", {}],
        [5, None, "serving.http.handler", 0.0, 0.001, "", {"route": "/readyz"}],
    ]
    metrics = layers.serving_layers(spans, {"r1": 0.010})
    assert abs(metrics["serving.http.handler_ms.p50"] - 4.0) < 1e-9
    assert abs(metrics["serving.http.transport_ms.p50"] - 6.0) < 1e-9
    assert abs(metrics["serving.gateway.self_ms.p50"] - 1.5) < 1e-9
    assert abs(metrics["core.tabula.query_ms.p50"] - 0.5) < 1e-9
    assert abs(metrics["serving.http.encode_ms.p50"] - 0.5) < 1e-9
