"""Query fallback ladder under concurrent maintenance.

The dangerous window: ``append_rows`` re-points a cell at a fresh
sample and collects the orphaned old one. A reader racing that swap
must still see a consistent pointer and sample — never mark the cell
degraded (let alone answer VOID): the cell had a valid sample the
whole time. Both ``query`` and ``query_many`` read pointer and sample
under the store's swap lock, which these tests check by racing them.
"""

import sys
import threading

import pytest

from repro.core.loss import MeanLoss
from repro.core.maintenance import append_rows
from repro.core.tabula import GuaranteeStatus, Tabula, TabulaConfig
from repro.data import generate_nyctaxi

ATTRS = ("passenger_count", "payment_type")


def make_tabula(rows=800, seed=3, theta=0.05):
    table = generate_nyctaxi(num_rows=rows, seed=seed)
    tabula = Tabula(
        table,
        TabulaConfig(
            cubed_attrs=ATTRS, threshold=theta, loss=MeanLoss("fare_amount"), seed=7
        ),
    )
    tabula.initialize()
    return tabula


def _query_of(cell):
    return {attr: value for attr, value in zip(ATTRS, cell) if value is not None}


def _uncertified(queries, results):
    """Racing answers for materialized cells that lost the certificate.

    A racing append may demote a cell to the global sample, which is
    still CERTIFIED; anything weaker means a reader saw a torn swap.
    """
    return [
        (query, result.source, result.detail)
        for query, result in zip(queries, results)
        if result.guarantee is not GuaranteeStatus.CERTIFIED
    ]


class TestDanglingPointer:
    def test_truly_dangling_pointer_still_degrades_honestly(self):
        """A pointer whose sample bytes are gone is real corruption: the
        cell degrades and the ladder answers, naming the lost sample."""
        tabula = make_tabula()
        store = tabula.store
        cell = next(iter(store._cell_to_sample_id))
        sid = store.sample_id_of(cell)
        del store._samples[sid]
        result = tabula.query(_query_of(cell))
        # The ladder still answers (never VOID for a populated cell) and
        # the degradation is recorded honestly.
        assert result.guarantee is not GuaranteeStatus.VOID
        assert result.source in {"representative", "global", "raw"}
        assert str(sid) in result.detail


class TestSwapInProgress:
    @pytest.mark.parametrize("batched", [False, True])
    def test_reader_waits_out_a_swap_in_progress(self, batched):
        """Deterministic replay of the race: a writer holds the swap
        lock in the torn state (pointer still names a sample whose bytes
        are gone). A reader arriving then must wait for the swap to
        finish and answer CERTIFIED, never degrade the cell."""
        tabula = make_tabula()
        store = tabula.store
        cell = next(iter(store._cell_to_sample_id))
        sid = store.sample_id_of(cell)
        results = []

        def reader():
            if batched:
                results.extend(tabula.query_many([_query_of(cell)]))
            else:
                results.append(tabula.query(_query_of(cell)))

        thread = threading.Thread(target=reader)
        with store._swap_lock:
            sample = store._samples.pop(sid)
            thread.start()
            thread.join(timeout=0.2)  # the reader is now blocked on the lock
            store._samples[sid] = sample
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [(r.source, r.guarantee) for r in results] == [
            ("local", GuaranteeStatus.CERTIFIED)
        ]
        assert not store.is_degraded(cell)


class TestAppendRacingReader:
    def test_reader_never_sees_void_during_appends(self):
        """Single and batched readers racing appends get CERTIFIED
        answers, and no cell is left degraded."""
        tabula = make_tabula()
        store = tabula.store
        queries = [_query_of(cell) for cell in list(store._cell_to_sample_id)]
        assert queries

        stop = threading.Event()
        violations = []
        errors = []

        def reader(batched):
            while not stop.is_set():
                try:
                    if batched:
                        results = tabula.query_many(queries)
                    else:
                        results = [tabula.query(query) for query in queries]
                except Exception as exc:  # noqa: BLE001 - fail the test
                    errors.append(repr(exc))
                    return
                violations.extend(_uncertified(queries, results))

        threads = [threading.Thread(target=reader, args=(b,)) for b in (False, True)]
        for thread in threads:
            thread.start()
        try:
            for batch in range(4):
                delta = generate_nyctaxi(num_rows=150, seed=100 + batch)
                append_rows(tabula, delta, seed=batch)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert violations == []
        assert store.degraded_cells == {}

    def test_quiescent_queries_certified_after_appends(self):
        tabula = make_tabula()
        cells = list(tabula.store._cell_to_sample_id)
        for batch in range(2):
            append_rows(tabula, generate_nyctaxi(num_rows=150, seed=50 + batch))
        for cell in cells:
            result = tabula.query(_query_of(cell))
            assert result.guarantee is GuaranteeStatus.CERTIFIED
            assert result.source in {"local", "global"}


@pytest.mark.parametrize("point_count", [1])
def test_void_requires_empty_population(point_count):
    """Sanity: VOID is reserved for the no-answer-possible case and a
    populated cell can always be answered some way."""
    tabula = make_tabula(rows=300)
    result = tabula.query({"payment_type": "credit"})
    assert result.guarantee is not GuaranteeStatus.VOID


class TestMultiWriterSerialization:
    """Concurrent ``append_rows`` callers must serialize on the
    instance write lock: interleaved planning and application would
    plan against a base table another writer is mutating."""

    def test_concurrent_appends_serialize_and_converge(self):
        tabula = make_tabula()
        initial_rows = tabula.table.num_rows
        deltas = [generate_nyctaxi(num_rows=120, seed=200 + i) for i in range(4)]
        errors = []
        barrier = threading.Barrier(len(deltas))

        def writer(delta, seed):
            try:
                barrier.wait(timeout=10)
                append_rows(tabula, delta, seed=seed)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(delta, i))
            for i, delta in enumerate(deltas)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert tabula.table.num_rows == initial_rows + sum(
            d.num_rows for d in deltas
        )
        # Post-quiescence, the θ-guarantee holds for every cube cell.
        for cell in list(tabula.store._cell_to_sample_id):
            result = tabula.query(_query_of(cell))
            assert result.guarantee is GuaranteeStatus.CERTIFIED

    def test_writers_and_readers_mixed(self):
        """Writers serialize while single and batched readers keep
        getting certified answers for every materialized cell."""
        tabula = make_tabula()
        cells = list(tabula.store._cell_to_sample_id)[:4]
        stop = threading.Event()
        problems = []

        queries = [_query_of(cell) for cell in cells]

        def reader(batched):
            try:
                while not stop.is_set():
                    if batched:
                        results = tabula.query_many(queries)
                    else:
                        results = [tabula.query(query) for query in queries]
                    problems.extend(_uncertified(queries, results))
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                problems.append(("reader", exc))

        def writer(offset):
            try:
                for batch in range(2):
                    delta = generate_nyctaxi(num_rows=80, seed=offset + batch)
                    append_rows(tabula, delta, seed=offset + batch)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                problems.append(("writer", exc))

        readers = [threading.Thread(target=reader, args=(b,)) for b in (False, True)]
        writers = [threading.Thread(target=writer, args=(300 + 10 * i,)) for i in range(2)]
        # Frequent thread switches widen the window in which a reader
        # can land between a writer's pointer swap and its sample GC.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert problems == []
        assert tabula.store.degraded_cells == {}
