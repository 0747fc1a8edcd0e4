"""Unit + property tests for the GroupBy operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import aggregates as agg
from repro.engine.column import Column
from repro.engine.groupby import aggregate, code_runs, group_rows
from repro.engine.schema import ColumnType
from repro.engine.table import Table
from repro.errors import UnknownColumnError


@pytest.fixture()
def table():
    return Table.from_pydict(
        {
            "m": ["cash", "credit", "cash", "credit", "cash"],
            "c": [1, 1, 2, 1, 1],
            "fare": [5.0, 9.0, 3.0, 11.0, 7.0],
        }
    )


class TestGroupRows:
    def test_single_key(self, table):
        groups = group_rows(table, ["m"])
        assert groups.num_groups == 2
        keys = {groups.decode_key(g) for g in range(groups.num_groups)}
        assert keys == {("cash",), ("credit",)}

    def test_groups_partition_all_rows(self, table):
        groups = group_rows(table, ["m", "c"])
        all_indices = np.concatenate(groups.group_indices)
        assert sorted(all_indices.tolist()) == list(range(table.num_rows))

    def test_composite_key(self, table):
        groups = group_rows(table, ["m", "c"])
        keys = {groups.decode_key(g) for g in range(groups.num_groups)}
        assert keys == {("cash", 1), ("cash", 2), ("credit", 1)}

    def test_group_table_materialization(self, table):
        groups = group_rows(table, ["m"])
        for g in range(groups.num_groups):
            sub = groups.group_table(g)
            label = groups.decode_key(g)[0]
            assert all(v == label for v in sub.column("m").to_list())

    def test_zero_keys_single_group(self, table):
        groups = group_rows(table, [])
        assert groups.num_groups == 1
        assert len(groups.group_indices[0]) == table.num_rows

    def test_empty_table(self):
        empty = Table.from_pydict({"m": [], "x": []})
        groups = group_rows(empty, ["m"])
        assert groups.num_groups == 0

    def test_unknown_key_raises(self, table):
        with pytest.raises(UnknownColumnError):
            group_rows(table, ["nope"])


class TestAggregate:
    def test_sum_per_group(self, table):
        out = aggregate(table, ["m"], [("total", agg.Sum(), "fare")])
        data = dict(zip(out.column("m").to_list(), out.column("total").to_list()))
        assert data == {"cash": 15.0, "credit": 20.0}

    def test_multiple_aggregations(self, table):
        out = aggregate(
            table, ["m"],
            [("n", agg.Count(), "fare"), ("avg", agg.Avg(), "fare")],
        )
        rows = {r["m"]: r for r in out.iter_rows()}
        assert rows["cash"]["n"] == 3.0
        assert rows["cash"]["avg"] == pytest.approx(5.0)

    def test_grand_total_with_no_keys(self, table):
        out = aggregate(table, [], [("total", agg.Sum(), "fare")])
        assert out.num_rows == 1
        assert out.column("total").to_list() == [35.0]


@given(
    labels=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=50),
)
@settings(max_examples=30, deadline=None)
def test_property_group_sizes_sum_to_total(labels):
    table = Table.from_pydict({"k": labels, "v": list(range(len(labels)))})
    groups = group_rows(table, ["k"])
    assert sum(len(idx) for idx in groups.group_indices) == len(labels)
    assert groups.num_groups == len(set(labels))


@given(
    labels=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=40),
    values=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=40),
)
@settings(max_examples=30, deadline=None)
def test_property_groupby_sum_matches_python(labels, values):
    n = min(len(labels), len(values))
    labels, values = labels[:n], values[:n]
    table = Table.from_pydict({"k": labels, "v": values})
    out = aggregate(table, ["k"], [("s", agg.Sum(), "v")])
    got = dict(zip(out.column("k").to_list(), out.column("s").to_list()))
    expected = {}
    for k, v in zip(labels, values):
        expected[k] = expected.get(k, 0) + v
    assert got == {k: float(v) for k, v in expected.items()}


# --- grouping oracle ---------------------------------------------------------
# group_rows sorts one packed int64 key; the reference below is the
# np.unique(axis=0) grouping it replaced. Both must give byte-identical
# groups: the same group order (lexicographic over code rows) and the
# same ascending row order inside each group, which fixes the samples a
# build draws and therefore its content digest.


def reference_groups(stacked):
    """``(key_codes, group_indices)`` via ``np.unique(stacked, axis=0)``."""
    uniq, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(uniq) + 1))
    return uniq, [order[bounds[g]:bounds[g + 1]] for g in range(len(uniq))]


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


#: Column kinds: dictionary labels, small ints around zero, ints up to
#: 2**40 (two of them overflow the packed key, so the fold must re-rank
#: it), ints near 2**60 (a wide key that re-ranking only the next column
#: would still overflow) and the int64 extremes (one column's own range
#: is too wide).
_COLUMN_VALUES = {
    "dictionary": st.sampled_from(["cash", "credit", "dispute", "no charge", "unknown"]),
    "negative": st.integers(min_value=-3, max_value=2),
    "wide": st.sampled_from([-(2**40), -5, 0, 7, 2**39, 2**40]),
    "huge": st.sampled_from([-(2**60), 3, 2**60 - 1]),
    "extreme": st.sampled_from([-(2**63), -1, 0, 2**63 - 1]),
}


@st.composite
def keyed_tables(draw):
    num_rows = draw(st.integers(min_value=1, max_value=60))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_VALUES)), min_size=1, max_size=6))
    columns = []
    for j, kind in enumerate(kinds):
        values = draw(st.lists(_COLUMN_VALUES[kind], min_size=num_rows, max_size=num_rows))
        if kind == "dictionary":
            columns.append(Column.from_values(f"k{j}", values, ColumnType.CATEGORY))
        else:
            columns.append(Column(f"k{j}", ColumnType.INT64, np.asarray(values, dtype=np.int64)))
    return Table(columns), tuple(c.name for c in columns)


class TestGroupingOracle:
    @given(case=keyed_tables())
    @settings(max_examples=200, deadline=None)
    def test_matches_unique_axis0(self, case):
        table, keys = case
        groups = group_rows(table, keys)
        stacked = np.column_stack([table.column(k).data.astype(np.int64) for k in keys])
        key_codes, group_indices = reference_groups(stacked)
        assert_same_bytes(groups.key_codes, key_codes)
        assert len(groups.group_indices) == len(group_indices)
        for got, want in zip(groups.group_indices, group_indices):
            assert_same_bytes(got, want)

    @given(case=keyed_tables())
    @settings(max_examples=100, deadline=None)
    def test_code_runs_first_occurrence_and_inverse(self, case):
        # derive_cuboids reads the first occurrence of each distinct row
        # and each row's run number straight from code_runs.
        table, keys = case
        stacked = np.column_stack([table.column(k).data.astype(np.int64) for k in keys])
        order, starts = code_runs(stacked)
        _, first, inverse = np.unique(stacked, axis=0, return_index=True, return_inverse=True)
        assert order[starts].tolist() == first.tolist()
        runs = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(order)]))
        assert runs[np.argsort(order)].tolist() == inverse.ravel().tolist()

    def test_single_row(self):
        table = Table([Column("k", ColumnType.INT64, np.asarray([-(2**40)], dtype=np.int64))])
        groups = group_rows(table, ["k"])
        assert_same_bytes(groups.key_codes, np.asarray([[-(2**40)]], dtype=np.int64))
        assert [g.tolist() for g in groups.group_indices] == [[0]]

    def test_empty_table(self):
        table = Table.from_pydict({"m": [], "x": []})
        groups = group_rows(table, ["m", "x"])
        assert_same_bytes(groups.key_codes, np.empty((0, 2), dtype=np.int64))
        assert groups.group_indices == ()

    def test_zero_keys(self, table):
        groups = group_rows(table, [])
        assert_same_bytes(groups.key_codes, np.empty((1, 0), dtype=np.int64))
        assert_same_bytes(groups.group_indices[0], np.arange(table.num_rows, dtype=np.int64))
