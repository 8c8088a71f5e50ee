"""Network partitions: cut semantics, stall/heal, seeded wave generation."""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.errors import SimulationError
from repro.faults import FaultTimeline
from repro.sim.resources import REPAIR_TAG

CHUNK = 16 * MB
SLICE = 4 * MB


def make_env(num_nodes=12):
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=mbs(100),
        disk_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, 2), 20, cluster.storage_ids,
                          chunk_size=CHUNK, seed=0)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


def make_transfer(cluster, src=1, dst=2, size=200 * MB):
    transfer = cluster.make_transfer(
        src, dst, size, SLICE, tag=REPAIR_TAG, read_disk=True,
        name=f"rep-{src}->{dst}",
    )
    cluster.transfers.start(transfer)
    return transfer


class TestTopologyCut:
    def test_reachability_follows_partitions(self):
        cluster, _, _ = make_env()
        assert cluster.reachable(1, 2)
        pid = cluster.apply_partition([[1, 3]])
        assert not cluster.reachable(1, 2)
        assert cluster.reachable(1, 3)  # same side of the cut
        assert cluster.reachable(2, 4)  # both in implicit group 0
        cluster.heal_partition(pid)
        assert cluster.reachable(1, 2)

    def test_cross_cut_transfer_stalls_and_resumes(self):
        cluster, _, _ = make_env()
        crossing = make_transfer(cluster, src=1, dst=2)
        within = make_transfer(cluster, src=3, dst=4)
        cluster.sim.run(until=0.2)
        pid = cluster.apply_partition([[1]])
        assert crossing.stalled
        assert not within.stalled
        # The cut does not make progress for the stalled flow.
        cluster.sim.run(until=5.0)
        assert crossing.active
        cluster.heal_partition(pid)
        assert not crossing.stalled
        cluster.sim.run()
        assert not crossing.active and not within.active

    def test_overlapping_partition_keeps_transfer_stalled(self):
        cluster, _, _ = make_env()
        transfer = make_transfer(cluster, src=1, dst=2)
        cluster.sim.run(until=0.2)
        first = cluster.apply_partition([[1]])
        second = cluster.apply_partition([[1, 5]])
        cluster.heal_partition(first)
        # Still cut by the second partition: the release must re-park it.
        assert transfer.stalled
        cluster.heal_partition(second)
        cluster.sim.run()
        assert not transfer.active

    def test_node_in_two_groups_rejected(self):
        cluster, _, _ = make_env()
        with pytest.raises(SimulationError):
            cluster.apply_partition([[1, 2], [2, 3]])

    def test_heal_unknown_partition_rejected(self):
        cluster, _, _ = make_env()
        with pytest.raises(SimulationError):
            cluster.heal_partition(999)


class TestTimelinePartitions:
    def test_partition_event_emits_and_heals(self):
        cluster, _, injector = make_env()
        transfer = make_transfer(cluster, src=1, dst=2)
        seen = []
        timeline = FaultTimeline().partition(0.5, [[1, 3]], duration=2.0)
        timeline.on(
            "partitioned",
            lambda _t, event, stalled: seen.append(("cut", stalled)),
        )
        timeline.on("healed", lambda _t, event: seen.append(("healed", None)))
        timeline.arm(cluster, injector)
        cluster.sim.run(until=1.0)
        assert seen == [("cut", [transfer])]
        assert transfer.stalled
        cluster.sim.run(until=3.0)
        assert seen[-1] == ("healed", None)
        assert not transfer.stalled
        cluster.sim.run()
        assert not transfer.active

    def test_generator_validation(self):
        tl = FaultTimeline()
        with pytest.raises(SimulationError):
            tl.partition(0.0, [[1]], duration=0.0)
        with pytest.raises(SimulationError):
            tl.partition(0.0, [[]], duration=1.0)
        with pytest.raises(SimulationError):
            tl.partition(0.0, [[1, 2], [2]], duration=1.0)
        assert tl.events == []

    def test_partition_composes_with_churn(self):
        cluster, _, injector = make_env()
        timeline = (
            FaultTimeline(seed=3)
            .partition(0.5, [[2, 4]], duration=1.0)
            .degrade(0.2, 5, factor=0.1, duration=1.0)
        )
        timeline.arm(cluster, injector)
        cluster.sim.run(until=5.0)
        assert cluster.reachable(2, 1)
