"""Foreground requests: one entry point, two paths, one result.

``TransferManager.request`` runs a request that fits one slice as a
bare flow while no partition is installed, and everything else as a
``Transfer``. Held here to the Transfer-only twin of ``tests/oracles.py``
with ``==``: a scripted cut across in-flight requests (the case where a
bare request must become the very transfer it stands for), and a seeded
YCSB-A testbed beside a repair.
"""

from repro.api import Testbed
from repro.cluster import MB, Cluster, mbs
from repro.experiments.config import ExperimentConfig
from repro.obs.metrics import Counter, MetricsRegistry, set_registry
from repro.sim.resources import FOREGROUND_TAG, REPAIR_TAG
from repro.sim.transfers import Transfer
from tests.oracles import TransferOnlyManager, requests_through_transfers

SLICE = 4 * MB
CUT_AT, HEAL_AT = 0.005, 0.1
#: In issue (hence id) order: name, source, destination ("c" is the
#: client), size. A name starting "repair" is a repair transfer.
BEFORE_CUT = (
    ("read-1", 1, "c", 2 * MB),
    ("repair-1-3", 1, 3, 32 * MB),
    ("upd-2", "c", 2, 2 * MB),
    ("big-2", 2, "c", 10 * MB),  # three slices: a Transfer on either path
    ("read-4", 4, "c", 2 * MB),  # does not cross the cut
    ("read-2", 2, "c", 3 * MB),
)
DURING_CUT = (
    ("upd-1", "c", 1, 2 * MB),  # crosses: parks at once
    ("read-5", 5, "c", 2 * MB),
)
AFTER_HEAL = (("read-3", 3, "c", 2 * MB),)


def _counters(registry):
    """Every counter but the ``transfers.*`` ones, which count the
    transfers built and so differ between the two paths by design."""
    return {
        metric.name: metric.value
        for metric in registry
        if isinstance(metric, Counter) and not metric.name.startswith("transfers.")
    }


def _cut_across_requests(transfer_only):
    """Requests and one repair transfer in flight when a cut falls; two
    more requests issued across it. Returns what the run computed."""
    cluster = Cluster(num_nodes=6, num_clients=1, link_bw=mbs(100), disk_bw=mbs(200))
    if transfer_only:
        requests_through_transfers(cluster)
    sim, manager = cluster.sim, cluster.transfers
    client = cluster.clients[0].id
    done, stalls, started = [], [], []
    stall, start_flow = manager.stall, manager.scheduler.start_flow
    manager.stall = lambda t: (stalls.append((t.id, t.name, sim.now)), stall(t))[1]
    manager.scheduler.start_flow = lambda f: (started.append((f.name, sim.now)), start_flow(f))[1]

    def issue(name, src, dst, size):
        src, dst = (client if src == "c" else src), (client if dst == "c" else dst)
        if name.startswith("repair"):
            cluster.start(cluster.make_transfer(src, dst, size, SLICE, tag=REPAIR_TAG, name=name))
            return
        read = dst == client
        issued = sim.now
        manager.request(
            name, src, dst,
            cluster.transfer_resources(src, dst, read_disk=read, write_disk=not read),
            size, SLICE, FOREGROUND_TAG,
            lambda: done.append((name, sim.now - issued, sim.now)),
        )

    cut = []
    sim.call_at(CUT_AT, lambda: cut.append(cluster.apply_partition([[1, 2]])))
    sim.call_at(HEAL_AT, lambda: cluster.heal_partition(cut[0]))
    for request in BEFORE_CUT:
        issue(*request)
    for request in DURING_CUT:
        sim.call_at(0.03, issue, *request)
    for request in AFTER_HEAL:
        sim.call_at(0.2, issue, *request)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        sim.run()
    finally:
        set_registry(previous)
    nodes = cluster.storage_nodes + cluster.clients
    return {
        "done": done,
        "stalls": [(name, when) for _, name, when in stalls],
        "started": started,
        "bytes": {res.name: dict(res.bytes_by_tag) for n in nodes for res in n.all_resources()},
        "counters": _counters(registry),
        "now": sim.now,
    }, [rid for rid, *_ in stalls], registry


class TestCutAcrossRequests:
    def test_equals_the_transfer_only_twin(self):
        run, ids, registry = _cut_across_requests(transfer_only=False)
        twin, twin_ids, twin_registry = _cut_across_requests(transfer_only=True)
        assert run == twin
        # Both stall by id; only the absolute ids differ.
        assert ids == sorted(ids) and twin_ids == sorted(twin_ids)
        # Every request live at the cut was promoted and every one issued
        # across it is a Transfer; the one issued after the heal is a flow.
        assert registry.counter("transfers.completed").value == 8
        assert twin_registry.counter("transfers.completed").value == 9

    def test_stall_order_is_by_id_with_requests_among_transfers(self):
        run, _, _ = _cut_across_requests(transfer_only=False)
        at_cut = [name for name, when in run["stalls"] if when == CUT_AT]
        assert at_cut == ["read-1", "repair-1-3", "upd-2", "big-2", "read-2"]
        # A request issued across the cut is a Transfer and parks at launch.
        assert ("upd-1", 0.03) in run["stalls"]

    def test_requests_relaunch_at_heal_and_span_the_cut(self):
        run, _, _ = _cut_across_requests(transfer_only=False)
        relaunched = {name for name, when in run["started"] if when == HEAL_AT}
        assert {"read-1[0]", "upd-2[0]", "read-2[0]", "upd-1[0]", "repair-1-3[0]"} <= relaunched
        latency = {name: lat for name, lat, _ in run["done"]}
        for name in ("read-1", "upd-2", "read-2"):
            assert latency[name] > HEAL_AT
        assert latency["upd-1"] > HEAL_AT - 0.03
        # The request on the far side of nobody's cut finished during it.
        assert latency["read-4"] < CUT_AT + 0.05
        issued = BEFORE_CUT + DURING_CUT + AFTER_HEAL
        assert {name for name, *_ in run["done"]} == {
            name for name, *_ in issued if not name.startswith("repair")
        }


class TestRequestPaths:
    def _env(self):
        cluster = Cluster(num_nodes=4, num_clients=1, link_bw=mbs(100), disk_bw=mbs(200))
        resources = cluster.transfer_resources(1, 4, read_disk=True, write_disk=False)
        return cluster, cluster.transfers, resources

    def test_single_slice_request_is_one_flow_until_listed(self):
        cluster, manager, resources = self._env()
        done = []
        manager.request("q", 1, 4, resources, 2 * MB, SLICE, FOREGROUND_TAG, lambda: done.append(1))
        assert not manager._live and len(manager._requests) == 1
        # Another tag's listing leaves the request a bare flow.
        assert manager.live_transfers(REPAIR_TAG) == []
        assert len(manager._requests) == 1
        (transfer,) = manager.live_transfers()
        assert isinstance(transfer, Transfer) and not manager._requests
        assert (transfer.name, transfer.src, transfer.dst, transfer.num_slices) == ("q", 1, 4, 1)
        assert transfer._inflight.name == "q[0]" and transfer.started_at == 0.0
        cluster.sim.run()
        assert done == [1] and transfer.done and not manager._live

    def test_multi_slice_and_cut_requests_are_transfers(self):
        cluster, manager, resources = self._env()
        manager.request("big", 1, 4, resources, 9 * MB, SLICE, FOREGROUND_TAG, lambda: None)
        pid = cluster.apply_partition([[2]])
        manager.request("cut", 1, 4, resources, 1 * MB, SLICE, FOREGROUND_TAG, lambda: None)
        assert not manager._requests
        assert [t.name for t in manager.live_transfers()] == ["big", "cut"]
        cluster.heal_partition(pid)
        manager.request("bare", 1, 4, resources, 1 * MB, SLICE, FOREGROUND_TAG, lambda: None)
        assert len(manager._requests) == 1
        cluster.sim.run()
        assert not manager._requests and not manager._live


def _ycsb_with_repair(transfer_only):
    """A seeded YCSB-A testbed beside a ChameleonEC repair of one node."""
    testbed = Testbed.build(ExperimentConfig.scaled(0.05, chunk_mb=16.0))
    if transfer_only:
        requests_through_transfers(testbed.cluster)
    sim = testbed.cluster.sim
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        testbed.start_foreground("YCSB-A")
        instants = []
        for client in testbed.clients:
            client.on("request_done", lambda c, **_: instants.append((c.client_node.id, sim.now)))
        sim.run(until=0.5)
        report = testbed.fail_nodes(1)
        repairer = testbed.make_repairer("ChameleonEC")
        repairer.repair(report.failed_chunks)
        testbed.run_until(lambda: repairer.done, step=0.5)
        testbed.stop_foreground()
        testbed.run_until(testbed.foreground_done, step=0.5)
    finally:
        set_registry(previous)
    cluster = testbed.cluster
    nodes = cluster.storage_nodes + cluster.clients
    return {
        "latency": list(testbed.latency.samples),
        "instants": instants,
        "bytes": {res.name: dict(res.bytes_by_tag) for n in nodes for res in n.all_resources()},
        "alloc": {name: value for name, value in _counters(registry).items()
                  if name.startswith("alloc.")},
        "repaired": repairer.meter.finished_at,
    }, isinstance(cluster.transfers, TransferOnlyManager), registry


def test_ycsb_requests_equal_the_transfer_only_twin():
    run, run_via_transfers, registry = _ycsb_with_repair(transfer_only=False)
    twin, twin_via_transfers, twin_registry = _ycsb_with_repair(transfer_only=True)
    assert (run_via_transfers, twin_via_transfers) == (False, True)
    assert len(run["latency"]) > 1000 and run["alloc"]["alloc.passes"] > 0
    assert run == twin
    # The requests left the Transfer layer: only repair transfers remain.
    requests = len(run["latency"])
    transfers = registry.counter("transfers.completed").value
    assert twin_registry.counter("transfers.completed").value == transfers + requests
