"""Dry-run stage: iceberg-cell lookup (Section III-B1).

The straightforward initializer would run ``2**n − 1`` full-table
GroupBys. Because the *loss* function is algebraic, the dry run instead:

1. scans the raw table **once** to build the base cuboid (GroupBy over
   all cubed attributes), computing each base cell's distributive loss
   statistics against the global sample;
2. derives every other cuboid by merging base-cell statistics upward
   through the lattice — no further raw-data access;
3. marks each cell whose ``loss(cell data, Sam_global) > θ`` as an
   *iceberg cell* and emits the per-cuboid iceberg-cell tables
   (Table I) plus the annotated lattice (Figure 5a).

The SAMPLING() measure itself is holistic (Lemma III.1), which is why
local samples are deferred to the real run and only drawn for iceberg
cells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.global_sample import GlobalSample
from repro.core.lattice import CuboidLattice, LatticeNode
from repro.core.loss.base import LossFunction
from repro.engine.cube import CellKey, align_cell_key, grouping_sets
from repro.engine.groupby import code_runs, group_rows
from repro.engine.table import Table
from repro.resilience.faults import fault_point, register_fault_point

FP_DRYRUN_DONE = register_fault_point(
    "init.dryrun.done", "dry run derived every cuboid, result not yet returned"
)


@dataclass
class DryRunResult:
    """Everything the real run and the benchmarks need from stage 1."""

    attrs: Tuple[str, ...]
    threshold: float
    lattice: CuboidLattice
    #: iceberg cells only: cell key -> merged loss statistics.
    iceberg_stats: Dict[CellKey, tuple]
    #: per-cuboid iceberg cell keys (the Table I b/c/d artifacts).
    iceberg_cells_by_cuboid: Dict[Tuple[str, ...], List[CellKey]]
    #: per-cuboid total cell counts.
    cell_counts: Dict[Tuple[str, ...], int]
    #: every existing (non-empty) cell of the whole cube.
    known_cells: frozenset
    #: per-cell loss value (all cells), for diagnostics and tests.
    cell_losses: Dict[CellKey, float]
    #: per-cell merged loss statistics (all cells) — kept so incremental
    #: maintenance can fold in deltas without re-reading the raw table.
    cell_stats: Dict[CellKey, tuple] = field(default_factory=dict)
    #: wall-clock seconds spent in the dry run.
    seconds: float = 0.0
    #: number of full raw-table passes performed (should stay 1).
    raw_table_passes: int = 1
    #: how the parallel engine actually executed this stage
    #: (:class:`repro.core.parallel.PoolExecution`); ``None`` for the
    #: serial path, which never fans out.
    execution: Optional[object] = None

    @property
    def iceberg_cells(self) -> List[CellKey]:
        return list(self.iceberg_stats)

    @property
    def num_iceberg_cells(self) -> int:
        return len(self.iceberg_stats)

    def iceberg_cell_table(self) -> List[CellKey]:
        """The combined iceberg-cell table (Table Ia)."""
        return list(self.iceberg_stats)


@dataclass
class CuboidDerivation:
    """Output of :func:`derive_cuboids` — every per-cell artifact of the
    upward merge, before lattice assembly."""

    iceberg_stats: Dict[CellKey, tuple]
    iceberg_by_cuboid: Dict[Tuple[str, ...], List[CellKey]]
    cell_counts: Dict[Tuple[str, ...], int]
    cell_losses: Dict[CellKey, float]
    cell_stats: Dict[CellKey, tuple]
    known: set


def derive_cuboids(
    attrs: Tuple[str, ...],
    base_keys: List[Tuple],
    base_stats: List[tuple],
    key_codes: np.ndarray,
    loss: LossFunction,
    threshold: float,
    sample_summary: tuple,
) -> CuboidDerivation:
    """Derive every cuboid from base-cell statistics (no raw-data access).

    Shared by the serial dry run (which feeds it the full-table GroupBy)
    and the parallel engine (which feeds it merged per-partition
    accumulators). ``key_codes`` is the ``(G, len(attrs))`` physical
    code matrix of the base cells; it only steers the grouping of the
    additive fast path, so any encoding that separates distinct keys is
    correct — but the *order* of ``base_keys`` fixes merge order and
    therefore must itself be deterministic for reproducible builds.
    """
    iceberg_stats: Dict[CellKey, tuple] = {}
    iceberg_by_cuboid: Dict[Tuple[str, ...], List[CellKey]] = {}
    cell_counts: Dict[Tuple[str, ...], int] = {}
    cell_losses: Dict[CellKey, float] = {}
    all_cell_stats: Dict[CellKey, tuple] = {}
    known: set = set()

    positions = {attr: i for i, attr in enumerate(attrs)}
    # Fast path: additive statistics accumulate with np.add.at instead of
    # a Python merge loop — the difference between seconds and minutes on
    # many-attribute cubes.
    additive = loss.additive_stats and len(base_keys) > 0
    if additive:
        stats_matrix = np.asarray(base_stats, dtype=float)
    for gset in grouping_sets(attrs):
        # Derive this cuboid by merging base-cell statistics upward.
        projector = [positions[a] for a in gset]
        merged: Dict[Tuple, tuple] = {}
        if additive:
            if projector:
                order, starts = code_runs(key_codes[:, projector])
                first = order[starts]
                # Each base cell's run number, in base-cell order.
                run_breaks = np.zeros(len(order), dtype=np.int64)
                run_breaks[starts[1:]] = 1
                inverse = np.empty_like(run_breaks)
                inverse[order] = np.cumsum(run_breaks)
                sums = np.zeros((len(starts), stats_matrix.shape[1]))
                np.add.at(sums, inverse, stats_matrix)
                for g in range(len(starts)):
                    representative = base_keys[first[g]]
                    projected = tuple(representative[p] for p in projector)
                    merged[projected] = tuple(sums[g])
            else:
                merged[()] = tuple(stats_matrix.sum(axis=0))
        else:
            for key, stats in zip(base_keys, base_stats):
                projected = tuple(key[p] for p in projector)
                if projected in merged:
                    merged[projected] = loss.merge_stats(merged[projected], stats)
                else:
                    merged[projected] = stats
        cell_counts[gset] = len(merged)
        cuboid_icebergs: List[CellKey] = []
        for projected, stats in merged.items():
            cell = align_cell_key(gset, projected, attrs)
            known.add(cell)
            all_cell_stats[cell] = stats
            cell_loss = loss.loss_from_stats(stats, sample_summary)
            cell_losses[cell] = cell_loss
            if cell_loss > threshold:
                iceberg_stats[cell] = stats
                cuboid_icebergs.append(cell)
        iceberg_by_cuboid[gset] = cuboid_icebergs
    return CuboidDerivation(
        iceberg_stats=iceberg_stats,
        iceberg_by_cuboid=iceberg_by_cuboid,
        cell_counts=cell_counts,
        cell_losses=cell_losses,
        cell_stats=all_cell_stats,
        known=known,
    )


def result_from_derivation(
    attrs: Tuple[str, ...],
    threshold: float,
    derived: CuboidDerivation,
    seconds: float,
    execution: Optional[object] = None,
) -> DryRunResult:
    """Assemble the lattice and package a :class:`DryRunResult`."""
    nodes = {
        gset: LatticeNode(
            grouping_set=gset,
            total_cells=derived.cell_counts[gset],
            iceberg_cells=len(derived.iceberg_by_cuboid[gset]),
        )
        for gset in grouping_sets(attrs)
    }
    return DryRunResult(
        attrs=attrs,
        threshold=threshold,
        lattice=CuboidLattice(attrs, nodes),
        iceberg_stats=derived.iceberg_stats,
        iceberg_cells_by_cuboid=derived.iceberg_by_cuboid,
        cell_counts=derived.cell_counts,
        known_cells=frozenset(derived.known),
        cell_losses=derived.cell_losses,
        cell_stats=derived.cell_stats,
        seconds=seconds,
        raw_table_passes=1,
        execution=execution,
    )


def dry_run(
    table: Table,
    attrs: Sequence[str],
    loss: LossFunction,
    threshold: float,
    global_sample: GlobalSample,
) -> DryRunResult:
    """Identify every iceberg cell with a single raw-table pass."""
    started = time.perf_counter()
    attrs = tuple(attrs)
    table.schema.require(attrs)

    values = loss.extract(table)
    sample_values = loss.extract(global_sample.table)
    sample_summary = loss.prepare_sample(sample_values)

    # Single full-table GroupBy: the base cuboid.
    base = group_rows(table, attrs)
    base_keys: List[Tuple] = [base.decode_key(g) for g in range(base.num_groups)]
    base_stats: List[tuple] = [
        loss.stats(values[idx], sample_values) for idx in base.group_indices
    ]

    derived = derive_cuboids(
        attrs, base_keys, base_stats, base.key_codes, loss, threshold, sample_summary
    )
    fault_point(FP_DRYRUN_DONE)
    return result_from_derivation(
        attrs, threshold, derived, time.perf_counter() - started
    )
