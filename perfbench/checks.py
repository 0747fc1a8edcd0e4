"""Correctness checks owned by the benchmark.

They use only the program's public surface (HTTP bodies, ``load_cube``,
``Tabula.query``, table columns) and re-derive what they can from the
raw rows, so a change to the program cannot weaken them. Each returns
a list of failure messages; an empty list means the answer passed.
They run after the timed window.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Float slack when comparing an independently re-measured loss with θ.
LOSS_RTOL = 1e-9


def expected_answer(tabula: Any, cell: Mapping[str, object], limit: int) -> Dict[str, object]:
    """The in-process reference for one dashboard cell."""
    result = tabula.query(dict(cell))
    data = result.sample.to_pydict()
    rows = {name: values[:limit] for name, values in data.items()}
    # The wire format is JSON; compare after the same round trip.
    return {
        "guarantee": result.guarantee.name,
        "source": result.source,
        "num_rows": result.sample.num_rows,
        "rows": json.loads(json.dumps(rows)),
    }


def dashboard_failures(status: int, body: Mapping[str, Any], expected: Mapping[str, object]) -> List[str]:
    """A served GET /query answer must equal the in-process reference."""
    if status != 200:
        return [f"status {status}"]
    failures = []
    for key in ("guarantee", "source", "num_rows", "rows"):
        if body.get(key) != expected[key]:
            failures.append(f"{key} differs from the in-process reference")
    return failures


def _inside(x: float, y: float, box: Mapping[str, float]) -> bool:
    return box["xmin"] <= x <= box["xmax"] and box["ymin"] <= y <= box["ymax"]


def viewport_failures(status: int, body: Mapping[str, Any], bbox: Mapping[str, float], cells: int) -> List[str]:
    """A viewport batch: one answer per cell, every row inside the bbox."""
    if status != 200:
        return [f"status {status}"]
    results = body.get("results") or []
    if len(results) != cells:
        return [f"{len(results)} results for {cells} cells"]
    failures = []
    for i, result in enumerate(results):
        if result.get("outcome") not in ("ok", "degraded", "circuit_open"):
            failures.append(f"item {i}: outcome {result.get('outcome')}")
            continue
        if result.get("source") != "empty" and not result.get("spatial_filtered"):
            failures.append(f"item {i}: geometry not applied")
        rows = result.get("rows") or {}
        for x, y in zip(rows.get("pickup_x", []), rows.get("pickup_y", [])):
            if not _inside(x, y, bbox):
                failures.append(f"item {i}: row ({x}, {y}) outside the viewport")
                break
    return failures


def narrowing_failures(filtered: Mapping[str, Any], unfiltered: Mapping[str, Any]) -> List[str]:
    """A CERTIFIED viewport answer keeps every row of its sample.

    ``filtered`` and ``unfiltered`` are the same batch with and without
    the geometry, asked of a server with no writes in flight.
    """
    failures = []
    pairs = zip(filtered.get("results") or [], unfiltered.get("results") or [])
    for i, (narrow, full) in enumerate(pairs):
        if narrow.get("guarantee") != "CERTIFIED" or narrow.get("source") not in ("local", "global"):
            continue
        if narrow.get("source") != full.get("source") or narrow.get("num_rows") != full.get("num_rows"):
            failures.append(
                f"item {i}: CERTIFIED answer has {narrow.get('num_rows')} of "
                f"{full.get('num_rows')} sample rows"
            )
    return failures


def ingest_failures(counters: Mapping[str, int], acked_batches: int, acked_rows: int) -> List[str]:
    """After catch-up every acknowledged row is applied exactly once."""
    failures = []
    if counters.get("accepted") != acked_batches or counters.get("accepted_rows") != acked_rows:
        failures.append(
            f"server accepted {counters.get('accepted')} batches/{counters.get('accepted_rows')} rows, "
            f"client saw {acked_batches}/{acked_rows} acknowledged"
        )
    if counters.get("applied_rows") != counters.get("accepted_rows"):
        failures.append(
            f"applied_rows {counters.get('applied_rows')} != accepted_rows {counters.get('accepted_rows')}"
        )
    if counters.get("deduplicated_batches"):
        failures.append(f"{counters.get('deduplicated_batches')} batches deduplicated")
    return failures


def cell_means(table: Any, attrs: Sequence[str], target: str) -> Dict[Tuple, Tuple[float, int]]:
    """``{cell: (raw mean, count)}`` for every non-empty cell of the cube.

    A cell key lists one label per attribute, ``None`` where the cuboid
    does not group by it; computed from the raw rows alone.
    """
    values = np.asarray(table.column(target).data, dtype=float)
    columns = [table.column(a) for a in attrs]
    out: Dict[Tuple, Tuple[float, int]] = {}
    for size in range(len(attrs) + 1):
        for subset in itertools.combinations(range(len(attrs)), size):
            key = np.zeros(len(values), dtype=np.int64)
            for i in subset:
                key = key * (len(columns[i].dictionary) + 1) + np.asarray(columns[i].data, dtype=np.int64)
            groups, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            sums = np.bincount(inverse, weights=values)
            counts = np.bincount(inverse)
            for g, row in enumerate(first):
                cell = tuple(
                    columns[i].dictionary[columns[i].data[row]] if i in subset else None
                    for i in range(len(attrs))
                )
                out[cell] = (float(sums[g] / counts[g]), int(counts[g]))
    return out


def _relative_error(raw_mean: float, sample_mean: float) -> float:
    if raw_mean == 0.0:
        return 0.0 if sample_mean == 0.0 else float("inf")
    return abs((raw_mean - sample_mean) / raw_mean)


def loss_failures(
    tabula: Any,
    means: Mapping[Tuple, Tuple[float, int]],
    attrs: Sequence[str],
    target: str,
    theta: float,
    iceberg_cells: Optional[int] = None,
) -> List[str]:
    """Every cell's answer is CERTIFIED with re-measured mean loss <= θ.

    The loss is re-measured from the raw rows (``means``) and the served
    sample, covering iceberg cells (local samples) and the cells the
    global sample answers alike. When ``iceberg_cells`` is given, the
    number of locally answered cells must equal it.
    """
    failures: List[str] = []
    local = 0
    for cell, (raw_mean, _count) in means.items():
        where = {a: v for a, v in zip(attrs, cell) if v is not None}
        result = tabula.query(where)
        if result.guarantee.name != "CERTIFIED":
            failures.append(f"{cell}: guarantee {result.guarantee.name}")
            continue
        sample = np.asarray(result.sample.column(target).data, dtype=float)
        if len(sample) == 0:
            failures.append(f"{cell}: empty answer for a non-empty cell")
            continue
        loss = _relative_error(raw_mean, float(sample.sum() / len(sample)))
        if loss > theta * (1 + LOSS_RTOL):
            failures.append(f"{cell}: re-measured loss {loss:.6g} > θ={theta}")
        if result.source == "local":
            local += 1
    if iceberg_cells is not None and local != iceberg_cells:
        failures.append(f"{local} cells answered locally, report says {iceberg_cells} iceberg cells")
    return failures[:20]


def digest_failures(serial: Sequence[str], parallel: Sequence[str], one_worker: str, n_workers: str) -> List[str]:
    """Builds are deterministic and the pool build is worker-count invariant.

    ``serial`` and ``parallel`` are the digests of repeated builds of one
    table; ``one_worker`` and ``n_workers`` are ``workers=1`` and
    ``workers=nproc`` builds of one table. ``workers=None`` (the classic
    serial build) draws from one shared RNG stream and ``workers>=1``
    from per-cell streams, so serial and pool cubes differ by design.
    """
    failures = []
    if len(set(serial)) > 1:
        failures.append(f"serial builds disagree: {sorted(set(serial))}")
    if len(set(parallel)) > 1:
        failures.append(f"parallel builds disagree: {sorted(set(parallel))}")
    if one_worker != n_workers:
        failures.append(f"workers=1 digest {one_worker[:12]} != workers=nproc digest {n_workers[:12]}")
    return failures
