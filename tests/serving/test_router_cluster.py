"""The sharded tier end to end: real workers, real kills, typed outcomes.

One 2-shard cluster is booted per module; the chaos tests (kill -9,
recovery) run in a dedicated class that restores the cluster before the
module's remaining tests see it, so ordering stays deterministic.
"""

import os
import signal
import time

import pytest

from repro.core.tabula import GuaranteeStatus
from repro.errors import TabulaError
from repro.serving.gateway import ServingOutcome
from repro.serving.router import RouterConfig
from repro.serving.supervisor import WorkerState

from tests.serving.conftest import (
    boot_cluster,
    cells_owned_by,
    where_for,
)

pytestmark = pytest.mark.faults

NUM_SHARDS = 2


@pytest.fixture(scope="module")
def cluster(cluster_cube):
    cube_path, csv_path, tabula = cluster_cube
    router = boot_cluster(
        cube_path,
        csv_path,
        NUM_SHARDS,
        router_config=RouterConfig(retries=1, retry_backoff_seconds=0.02),
    )
    # Both shards must actually own cells, or the kill test is vacuous.
    for shard in range(NUM_SHARDS):
        assert cells_owned_by(tabula, router.placement, shard), (
            f"shard {shard} owns no iceberg cells; enlarge the fixture cube"
        )
    yield router, tabula
    router.close()


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestHealthyRouting:
    def test_owned_cells_answer_certified_from_their_shard(self, cluster):
        router, tabula = cluster
        for shard in range(NUM_SHARDS):
            cell = cells_owned_by(tabula, router.placement, shard)[0]
            response = router.query(where_for(cell))
            assert response.outcome is ServingOutcome.OK
            assert response.guarantee is GuaranteeStatus.CERTIFIED
            assert response.source == "local"
            assert response.cell == cell

    def test_batch_groups_by_owner_and_stays_certified(self, cluster):
        router, tabula = cluster
        cells = (
            cells_owned_by(tabula, router.placement, 0)[:3]
            + cells_owned_by(tabula, router.placement, 1)[:3]
        )
        responses = router.query_many([where_for(c) for c in cells])
        assert len(responses) == len(cells)
        for cell, response in zip(cells, responses):
            assert response.guarantee is GuaranteeStatus.CERTIFIED
            assert response.cell == cell

    def test_wire_row_limit_truncates_samples(self, cluster_cube):
        cube_path, csv_path, tabula = cluster_cube
        router = boot_cluster(
            cube_path, csv_path, 1, router_config=RouterConfig(wire_row_limit=2)
        )
        try:
            cell = next(iter(tabula.store._cell_to_sample_id))
            response = router.query(where_for(cell))
            assert response.sample is not None
            assert response.sample.num_rows <= 2
        finally:
            router.close()

    def test_invalid_query_raises_tabula_error_for_http_400(self, cluster):
        router, _ = cluster
        with pytest.raises(TabulaError):
            router.query({"not_a_cubed_attr": "x"})

    def test_stats_shape_includes_per_shard_health(self, cluster):
        router, _ = cluster
        stats = router.stats()
        assert stats["requests_total"] > 0
        assert stats["num_shards"] == NUM_SHARDS
        assert set(stats["shards"]) == {"0", "1"}
        for shard_doc in stats["shards"].values():
            assert "state" in shard_doc
            assert "router_breaker" in shard_doc
            assert "restarts_total" in shard_doc

    def test_shard_stats_reaches_every_worker(self, cluster):
        router, _ = cluster
        per_shard = router.shard_stats()
        assert set(per_shard) == {"0", "1"}
        for doc in per_shard.values():
            assert "unavailable" not in doc


class TestDeadlines:
    def test_expired_deadline_is_typed_504_never_an_exception(self, cluster):
        router, tabula = cluster
        cell = next(iter(tabula.store._cell_to_sample_id))
        response = router.query(where_for(cell), deadline_seconds=1e-6)
        assert response.outcome is ServingOutcome.DEADLINE_EXCEEDED
        assert response.guarantee is GuaranteeStatus.VOID

    def test_generous_deadline_still_certified(self, cluster):
        router, tabula = cluster
        cell = next(iter(tabula.store._cell_to_sample_id))
        response = router.query(where_for(cell), deadline_seconds=30.0)
        assert response.guarantee is GuaranteeStatus.CERTIFIED


class TestKillAndRecovery:
    def test_sigkill_degrades_then_supervisor_recovers_to_certified(self, cluster):
        """The chaos criterion, in miniature: kill -9 one worker, watch
        its cells degrade monotonically (never an exception, never a
        silent CERTIFIED), then watch the supervisor bring them back."""
        router, tabula = cluster
        victim = 1
        victim_cell = cells_owned_by(tabula, router.placement, victim)[0]
        survivor_cell = cells_owned_by(tabula, router.placement, 0)[0]

        pid = router.supervisor.health()[victim]["pid"]
        assert pid is not None
        os.kill(pid, signal.SIGKILL)

        # While down: the victim's cells answer DOWNGRADED from the
        # replicated global sample — from a failover replica or the
        # local rung, but never CERTIFIED and never a raised error.
        response = router.query(where_for(victim_cell), deadline_seconds=10.0)
        assert response.outcome is ServingOutcome.DEGRADED
        assert response.guarantee is GuaranteeStatus.DOWNGRADED
        assert response.source == "global"
        assert f"shard {victim}" in response.detail

        # The surviving shard is unaffected.
        ok = router.query(where_for(survivor_cell))
        assert ok.guarantee is GuaranteeStatus.CERTIFIED

        # Supervisor: detect death, restart, return to UP.
        assert wait_until(
            lambda: router.supervisor.state_of(victim) is WorkerState.UP
            and router.supervisor.health()[victim]["restarts_total"] >= 1
        ), f"supervisor never recovered shard {victim}: {router.supervisor.health()}"

        # Recovered worker re-certifies its own cells.
        assert wait_until(
            lambda: router.query(where_for(victim_cell)).guarantee
            is GuaranteeStatus.CERTIFIED,
            timeout=10.0,
        ), "restarted shard never returned to CERTIFIED answers"

    def test_batch_with_one_dead_shard_degrades_only_that_group(self, cluster):
        router, tabula = cluster
        victim = 0
        health_before = router.supervisor.health()[victim]
        pid = health_before["pid"]
        restarts_before = health_before["restarts_total"]
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        cells = (
            cells_owned_by(tabula, router.placement, victim)[:2]
            + cells_owned_by(tabula, router.placement, 1)[:2]
        )
        responses = router.query_many([where_for(c) for c in cells], deadline_seconds=10.0)
        for cell, response in zip(cells, responses):
            owner = router.placement.shard_of(cell)
            if owner == victim:
                assert response.guarantee is GuaranteeStatus.DOWNGRADED
            else:
                assert response.guarantee is GuaranteeStatus.CERTIFIED
        # Leave the cluster healthy for any test that runs after us —
        # "UP" alone can be the stale pre-kill state, so wait for the
        # restart counter to prove the supervisor saw the death.
        assert wait_until(
            lambda: router.supervisor.health()[victim]["restarts_total"]
            > restarts_before
            and router.supervisor.state_of(victim) is WorkerState.UP
        )


    def test_batch_with_dead_owner_fails_over_to_ring_next_replica(self, cluster):
        """A batch group gets the ladder single queries get: a dead
        owner's group is answered by the next shard in ring order, not
        sent straight to the router's local rung."""
        router, tabula = cluster
        victim = 1
        cells = cells_owned_by(tabula, router.placement, victim)[:2]
        health_before = router.supervisor.health()[victim]
        restarts_before = health_before["restarts_total"]
        rpc_before = router.stats()["rpc"]
        os.kill(health_before["pid"], signal.SIGKILL)

        responses = router.query_many([where_for(c) for c in cells], deadline_seconds=10.0)

        rpc_after = router.stats()["rpc"]
        assert rpc_after["failovers"] == rpc_before["failovers"] + 1
        assert rpc_after["fallback_local"] == rpc_before["fallback_local"]
        for response in responses:
            # The replica holds no local sample for a foreign cell: it
            # answers from the replicated global sample, DOWNGRADED.
            assert response.guarantee is GuaranteeStatus.DOWNGRADED
            assert response.source == "global"
            assert f"shard {victim} unavailable" in response.detail
        assert wait_until(
            lambda: router.supervisor.health()[victim]["restarts_total"]
            > restarts_before
            and router.supervisor.state_of(victim) is WorkerState.UP
        )


class TestReload:
    def test_hot_reload_bumps_generation_everywhere(self, cluster):
        router, tabula = cluster
        # Wait out any restart in flight from the kill tests; only a
        # successful RPC to every worker proves reachability (the
        # supervisor's UP can lag a kill by one heartbeat).
        assert wait_until(
            lambda: len(router.supervisor.up_shards()) == NUM_SHARDS
            and all(
                "unavailable" not in doc for doc in router.shard_stats().values()
            ),
            timeout=20.0,
        )
        generation_before = router.generation
        result = router.reload()
        assert result.ok, result.error
        assert router.generation == generation_before + 1
        cell = next(iter(tabula.store._cell_to_sample_id))
        response = router.query(where_for(cell))
        assert response.guarantee is GuaranteeStatus.CERTIFIED
