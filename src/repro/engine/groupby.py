"""Hash GroupBy over one or more key columns.

The grouping machinery returns, for every distinct key combination, the
row indices belonging to that group. Aggregation is layered on top via
the :mod:`repro.engine.aggregates` framework; Tabula's dry run uses the
raw index groups directly to compute loss-function sufficient
statistics per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.aggregates import AggregateFunction
from repro.engine.column import Column
from repro.engine.schema import ColumnType
from repro.engine.table import Table


@dataclass(frozen=True)
class Groups:
    """The result of grouping ``table`` by ``keys``.

    Attributes:
        table: the grouped input table.
        keys: the grouping column names.
        key_codes: ``(G, len(keys))`` array of *physical* key codes, one
            row per group. For zero keys this has shape ``(1, 0)``: the
            single all-rows group (the "All" cuboid of the lattice).
        group_indices: for each group, the row indices in ``table``.
    """

    table: Table
    keys: Tuple[str, ...]
    key_codes: np.ndarray
    group_indices: Tuple[np.ndarray, ...]

    @property
    def num_groups(self) -> int:
        return len(self.group_indices)

    def decode_key(self, group: int) -> Tuple:
        """Logical key values of ``group`` (dictionary labels, ints, ...)."""
        values = []
        for j, name in enumerate(self.keys):
            col = self.table.column(name)
            code = self.key_codes[group, j]
            if col.dictionary is not None:
                values.append(col.dictionary[int(code)])
            else:
                values.append(code.item() if hasattr(code, "item") else code)
        return tuple(values)

    def group_table(self, group: int) -> Table:
        """Materialize the rows of ``group`` as a table."""
        return self.table.take(self.group_indices[group])


def group_rows(table: Table, keys: Sequence[str]) -> Groups:
    """Group ``table`` rows by the key columns, returning index groups.

    Runs in a single sort-based pass (``O(N log N)``) over composite
    keys; the engine's analogue of a hash aggregate. Groups come in
    lexicographic order of their code rows, and each group's row
    indices ascend.
    """
    keys = tuple(keys)
    table.schema.require(keys)
    n = table.num_rows
    if not keys:
        return Groups(
            table=table,
            keys=(),
            key_codes=np.empty((1, 0), dtype=np.int64),
            group_indices=(np.arange(n, dtype=np.int64),),
        )
    stacked = np.column_stack([table.column(k).data.astype(np.int64) for k in keys])
    if n == 0:
        return Groups(table=table, keys=keys, key_codes=np.empty((0, len(keys)), dtype=np.int64), group_indices=())
    order, starts = code_runs(stacked)
    return Groups(
        table=table,
        keys=keys,
        key_codes=stacked[order[starts]],
        group_indices=tuple(np.split(order, starts[1:])),
    )


#: Largest span a packed key may reach; keeps ``key * radix + code``
#: inside int64.
_KEY_LIMIT = 1 << 62


def code_runs(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an ``(N, K)`` int64 code matrix (``N >= 1``) into runs.

    Returns ``(order, starts)``: ``order`` is the stable permutation
    that sorts the rows lexicographically, and ``starts`` holds the
    position in ``order`` where each run of equal rows begins. So
    ``order[starts]`` is each distinct row's first occurrence, and the
    distinct rows come in ascending lexicographic order.

    The columns are folded into one int64 key (``key * radix + code``,
    each column shifted by its minimum) and sorted once. Before a fold
    would pass 2**62 the key is re-ranked densely, which keeps its
    order; a column whose own range is that wide is re-ranked likewise.
    """
    n, k = codes.shape
    key = np.zeros(n, dtype=np.int64)
    span = 1
    for j in range(k):
        column = codes[:, j]
        lo, hi = int(column.min()), int(column.max())
        radix = hi - lo + 1
        if span * radix > _KEY_LIMIT:
            key, span = _dense_rank(key)
        if span * radix > _KEY_LIMIT:
            column, radix = _dense_rank(column)
        else:
            column = column - lo
        key = key * radix + column
        span *= radix
    # NumPy's stable sort is a radix sort on 16-bit keys, ≈10× faster
    # than on int64; cubed attributes usually span a few thousand keys.
    order = np.argsort(key.astype(np.uint16) if span <= 1 << 16 else key, kind="stable")
    ordered = key[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return order, starts


def _dense_rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving dense ranks of ``values`` and their count."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks.astype(np.int64, copy=False).ravel(), len(distinct)


def aggregate(
    table: Table,
    keys: Sequence[str],
    aggregations: Sequence[Tuple[str, AggregateFunction, str]],
) -> Table:
    """GroupBy-aggregate: ``SELECT keys, agg(input) ... GROUP BY keys``.

    Args:
        table: input table.
        keys: grouping columns.
        aggregations: ``(output_name, aggregate, input_column)`` triples.

    Returns:
        A table with one row per group: the key columns followed by one
        float column per aggregation.
    """
    groups = group_rows(table, keys)
    key_columns = _key_columns(groups)
    agg_columns: List[Column] = []
    value_cache: Dict[str, np.ndarray] = {}
    for out_name, func, in_name in aggregations:
        if in_name not in value_cache:
            value_cache[in_name] = table.column(in_name).data.astype(float)
        values = value_cache[in_name]
        results = np.fromiter(
            (func.finalize(func.init_state(values[idx])) for idx in groups.group_indices),
            dtype=float,
            count=groups.num_groups,
        )
        agg_columns.append(Column(out_name, ColumnType.FLOAT64, results))
    return Table(key_columns + agg_columns)


def _key_columns(groups: Groups) -> List[Column]:
    """Build output key columns (one row per group) preserving dictionaries."""
    columns: List[Column] = []
    for j, name in enumerate(groups.keys):
        source = groups.table.column(name)
        codes = groups.key_codes[:, j]
        if source.dictionary is not None:
            columns.append(Column.from_codes(name, codes.astype(np.int32), source.dictionary))
        else:
            columns.append(Column(name, source.ctype, codes.astype(source.ctype.numpy_dtype)))
    return columns
