"""Each benchmark check accepts the program's answer and rejects a tampered one.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from repro.core.loss.registry import LossRegistry
from repro.core.tabula import Tabula, TabulaConfig
from repro.data import generate_nyctaxi

ATTRS = ("payment_type", "rate_code")
THETA = 0.05


@pytest.fixture(scope="module")
def table():
    return generate_nyctaxi(num_rows=3000, seed=5)


@pytest.fixture(scope="module")
def tabula(table):
    loss = LossRegistry().bind("mean_loss", ("fare_amount",))
    cube = Tabula(table, TabulaConfig(cubed_attrs=ATTRS, threshold=THETA, loss=loss))
    cube.initialize()
    return cube


def served(tabula, cell, limit=20):
    """What the HTTP surface returns for a cell (JSON round trip)."""
    expected = checks.expected_answer(tabula, cell, limit)
    return json.loads(json.dumps({**expected, "outcome": "ok", "elapsed_seconds": 0.001}))


def test_dashboard_accepts_reference_and_rejects_tampering(tabula):
    cell = {"payment_type": "cash"}
    expected = checks.expected_answer(tabula, cell, 20)
    body = served(tabula, cell)
    assert checks.dashboard_failures(200, body, expected) == []
    assert checks.dashboard_failures(503, body, expected) == ["status 503"]
    for key, value in (("guarantee", "DOWNGRADED"), ("source", "global"), ("num_rows", body["num_rows"] + 1)):
        bad = {**body, key: value}
        assert checks.dashboard_failures(200, bad, expected), key
    bad = copy.deepcopy(body)
    bad["rows"]["fare_amount"][0] += 1.0
    assert checks.dashboard_failures(200, bad, expected)


BOX = {"type": "bbox", "xmin": 0.2, "ymin": 0.2, "xmax": 0.6, "ymax": 0.6}


def viewport_body(xs, ys, **fields):
    result = {
        "outcome": "ok", "guarantee": "DOWNGRADED", "source": "local", "num_rows": len(xs),
        "spatial_filtered": True, "rows": {"pickup_x": xs, "pickup_y": ys},
    }
    result.update(fields)
    return {"results": [result]}


def test_viewport_rejects_rows_outside_the_box():
    assert checks.viewport_failures(200, viewport_body([0.2, 0.6], [0.3, 0.6]), BOX, 1) == []
    assert checks.viewport_failures(200, viewport_body([0.61], [0.3]), BOX, 1)
    assert checks.viewport_failures(200, viewport_body([0.3], [0.3], spatial_filtered=False), BOX, 1)
    assert checks.viewport_failures(200, viewport_body([0.3], [0.3], outcome="shed"), BOX, 1)
    assert checks.viewport_failures(200, viewport_body([0.3], [0.3]), BOX, 2)
    assert checks.viewport_failures(504, {}, BOX, 1)


def test_certified_viewport_answer_must_keep_every_row():
    full = viewport_body([0.1, 0.3], [0.3, 0.3], guarantee="CERTIFIED", spatial_filtered=False)
    kept = viewport_body([0.1, 0.3], [0.3, 0.3], guarantee="CERTIFIED")
    narrowed = viewport_body([0.3], [0.3], guarantee="CERTIFIED")
    downgraded = viewport_body([0.3], [0.3], guarantee="DOWNGRADED")
    assert checks.narrowing_failures(kept, full) == []
    assert checks.narrowing_failures(downgraded, full) == []
    assert checks.narrowing_failures(narrowed, full)


def test_ingest_counters_must_show_every_ack_applied_once():
    good = {"accepted": 3, "accepted_rows": 300, "applied_rows": 300, "deduplicated_batches": 0}
    assert checks.ingest_failures(good, 3, 300) == []
    assert checks.ingest_failures({**good, "applied_rows": 200}, 3, 300)
    assert checks.ingest_failures({**good, "deduplicated_batches": 1}, 3, 300)
    assert checks.ingest_failures(good, 4, 400)


def test_cell_means_match_a_brute_force_scan(table):
    means = checks.cell_means(table, ATTRS, "fare_amount")
    fares = np.asarray(table.column("fare_amount").data, dtype=float)
    for cell in [(None, None), ("cash", None), ("credit", "standard")]:
        mask = np.ones(table.num_rows, dtype=bool)
        for attr, value in zip(ATTRS, cell):
            if value is not None:
                col = table.column(attr)
                mask &= col.data == col.dictionary.index(value)
        assert means[cell][1] == int(mask.sum())
        assert means[cell][0] == pytest.approx(fares[mask].mean(), rel=1e-12)
    assert len(means) == distinct_cells(table)


def distinct_cells(table):
    cells = set()
    cols = [table.column(a) for a in ATTRS]
    for row in range(table.num_rows):
        labels = [c.dictionary[c.data[row]] for c in cols]
        for mask in range(4):
            cells.add(tuple(labels[i] if mask >> i & 1 else None for i in range(2)))
    return len(cells)


def test_loss_check_passes_the_built_cube_and_rejects_a_bad_sample(tabula, table):
    means = checks.cell_means(table, ATTRS, "fare_amount")
    iceberg = tabula.report.num_iceberg_cells
    assert checks.loss_failures(tabula, means, ATTRS, "fare_amount", THETA, iceberg) == []
    assert checks.loss_failures(tabula, means, ATTRS, "fare_amount", THETA, iceberg + 1)

    fares = np.asarray(table.column("fare_amount").data, dtype=float)
    worst_row = int(np.argmax(fares))

    def tampered_query(where):
        result = tabula.query(where)
        if where == {"payment_type": "cash"}:
            result = SimpleNamespace(**{**vars(result), "sample": table.take(np.array([worst_row]))})
        return result

    fake = SimpleNamespace(query=tampered_query)
    failures = checks.loss_failures(fake, means, ATTRS, "fare_amount", THETA)
    assert any("('cash', None)" in f for f in failures)


def test_digest_check_rejects_disagreeing_builds():
    assert checks.digest_failures(["a", "a"], ["b"], "c", "c") == []
    assert checks.digest_failures(["a", "x"], ["b"], "c", "c")
    assert checks.digest_failures(["a"], ["b", "y"], "c", "c")
    assert checks.digest_failures(["a"], ["b"], "c", "d")
