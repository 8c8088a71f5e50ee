"""Recovery machinery under injected faults: retry, re-plan, graceful loss.

Covers the acceptance criteria of the fault subsystem: a full-node repair
survives a mid-repair helper crash plus a transient straggler with zero lost
chunks, and a crash beyond the code's fault tolerance degrades to a reported
``ToleranceExceeded`` outcome instead of an unhandled exception.
"""

import pytest

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.core import ChameleonRepair
from repro.errors import SchedulingError
from repro.faults import FaultTimeline
from repro.monitor import BandwidthMonitor
from repro.repair import PPR, ConventionalRepair, RepairRunner

CHUNK = 16 * MB
SLICE = 4 * MB


def make_env(num_nodes=12, m=2, stripes=20):
    cluster = Cluster(
        num_nodes=num_nodes, num_clients=0, link_bw=mbs(100),
        disk_bw=mbs(1000),
    )
    store = place_stripes(RSCode(4, m), stripes, cluster.storage_ids,
                          chunk_size=CHUNK, seed=0)
    injector = FailureInjector(cluster, store)
    return cluster, store, injector


def make_runner(cluster, store, injector, strategy=None, **kwargs):
    return RepairRunner(
        cluster, store, injector, strategy or ConventionalRepair(seed=1),
        chunk_size=CHUNK, slice_size=SLICE, **kwargs,
    )


def make_chameleon(cluster, store, injector, **kwargs):
    monitor = BandwidthMonitor(cluster)
    monitor.start()
    return ChameleonRepair(
        cluster, store, injector, monitor,
        chunk_size=CHUNK, slice_size=SLICE, t_phase=10.0, **kwargs,
    )


def run_until_done(cluster, repairer, limit=50_000.0, step=10.0):
    while not repairer.done and cluster.sim.now < limit:
        cluster.sim.run(until=cluster.sim.now + step)
    return repairer.done


class TestCrashRecovery:
    @pytest.mark.parametrize("kind", ["runner", "chameleon"])
    def test_helper_crash_plus_straggler_repairs_everything(self, kind):
        """The headline scenario: crash a helper and throttle another node
        mid-repair; every chunk must still come back, via retries and the
        adopted chunks of the crashed node."""
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        if kind == "runner":
            repairer = make_runner(cluster, store, injector)
        else:
            repairer = make_chameleon(cluster, store, injector)
        retries, adopted, failed = [], [], []
        repairer.on("retry", lambda r, chunk, attempt: retries.append(chunk))
        repairer.on("chunks_added", lambda r, chunks: adopted.extend(chunks))
        repairer.on("chunk_failed", lambda r, **kw: failed.append(kw["chunk"]))

        crash_reports = []
        timeline = (
            FaultTimeline(seed=4)
            .crash(0.5, 5)
            .degrade(0.7, 7, factor=0.1, duration=2.0)
        )

        def on_crash(t, node_id, report, failed_transfers):
            crash_reports.append(report)
            repairer.add_chunks(report.failed_chunks)

        timeline.on("node_crashed", on_crash)
        timeline.arm(cluster, injector)

        repairer.repair(report.failed_chunks)
        assert run_until_done(cluster, repairer)
        assert repairer.lost == []
        assert repairer.tolerance_exceeded is None
        assert len(crash_reports) == 1
        # Chunks already in flight toward the crashed node are retried, not
        # adopted, so adoption covers the rest of the crash report.
        assert adopted
        assert set(adopted) <= set(crash_reports[0].failed_chunks)
        # The crash killed in-flight work on node 5: retries were needed.
        assert retries and failed
        expected = set(report.failed_chunks) | set(adopted)
        assert set(repairer.completed) == expected

    def test_destination_crash_mid_repair(self):
        """Crashing a node that is receiving repaired chunks must fail and
        re-plan those repairs, not silently complete them."""
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_runner(cluster, store, injector)
        timeline = FaultTimeline(seed=2).crash(0.5, 1)
        timeline.on(
            "node_crashed",
            lambda t, node_id, report, failed_transfers:
                repairer.add_chunks(report.failed_chunks),
        )
        timeline.arm(cluster, injector)
        repairer.repair(report.failed_chunks)
        assert run_until_done(cluster, repairer)
        assert repairer.lost == []
        for chunk in repairer.completed:
            assert cluster.node(store.node_of(chunk)).alive

    def test_beyond_tolerance_reports_instead_of_raising(self):
        """RS(4,2) with three dead nodes: unrepairable chunks become ``lost``
        and the run finishes with a ToleranceExceeded outcome attached."""
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_runner(cluster, store, injector)
        outcomes = []
        repairer.on("tolerance_exceeded", lambda r, outcome: outcomes.append(outcome))
        timeline = FaultTimeline(seed=1).crash(0.5, 6).crash(0.6, 7).crash(0.7, 8)
        timeline.on(
            "node_crashed",
            lambda t, node_id, report, failed_transfers:
                repairer.add_chunks(report.failed_chunks),
        )
        timeline.arm(cluster, injector)
        repairer.repair(report.failed_chunks)
        assert run_until_done(cluster, repairer)  # no exception escapes
        assert repairer.tolerance_exceeded is not None
        assert repairer.lost
        # The event fires once, on the first loss; the attribute keeps
        # tracking subsequent losses.
        assert len(outcomes) == 1
        assert set(outcomes[0].lost_chunks) <= set(repairer.lost)
        out = repairer.tolerance_exceeded
        assert set(out.failed_nodes) >= {0, 6, 7}
        assert set(out.lost_chunks) == set(repairer.lost)

    def test_beyond_tolerance_chameleon(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        coord = make_chameleon(cluster, store, injector)
        timeline = FaultTimeline(seed=1).crash(0.5, 6).crash(0.6, 7).crash(0.7, 8)
        timeline.on(
            "node_crashed",
            lambda t, node_id, report, failed_transfers:
                coord.add_chunks(report.failed_chunks),
        )
        timeline.arm(cluster, injector)
        coord.repair(report.failed_chunks)
        assert run_until_done(cluster, coord)
        assert coord.tolerance_exceeded is not None
        assert coord.lost


class TestRetryMachinery:
    @pytest.mark.parametrize("kind", ["runner", "chameleon"])
    def test_chunk_timeout_forces_retry_with_backoff(self, kind):
        """An unattainable timeout fires the watchdog; retries are spaced
        by exponential backoff and the chunk is eventually lost after
        max_retries attempts (the plan itself never gets a chance)."""
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[:1]
        kwargs = dict(max_retries=2, retry_backoff=1.0, chunk_timeout=0.01)
        if kind == "runner":
            repairer = make_runner(cluster, store, injector, **kwargs)
        else:
            repairer = make_chameleon(cluster, store, injector, **kwargs)
        retry_times = []
        repairer.on(
            "retry",
            lambda r, **kw: retry_times.append(cluster.sim.now),
        )
        repairer.repair(chunk)
        run_until_done(cluster, repairer, limit=100.0)
        assert repairer.done
        assert repairer.lost == list(chunk)
        assert len(retry_times) == 2
        # Backoff doubles: second retry waits ~2x the first.
        gap1 = retry_times[0]
        gap2 = retry_times[1] - retry_times[0]
        assert gap2 > gap1

    def test_repair_succeeds_with_generous_timeout(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_runner(cluster, store, injector, chunk_timeout=500.0)
        repairer.repair(report.failed_chunks)
        assert run_until_done(cluster, repairer)
        assert repairer.lost == []
        assert repairer.retries == 0

    def test_ppr_retry_path(self):
        """Multi-stage PPR plans also recover from a mid-repair crash."""
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_runner(cluster, store, injector, strategy=PPR(seed=3))
        timeline = FaultTimeline(seed=6).crash(1.0, 4)
        timeline.on(
            "node_crashed",
            lambda t, node_id, report, failed_transfers:
                repairer.add_chunks(report.failed_chunks),
        )
        timeline.arm(cluster, injector)
        repairer.repair(report.failed_chunks)
        assert run_until_done(cluster, repairer)
        assert repairer.lost == []


class TestSuspicionReplan:
    def test_helper_suspected_replans_in_flight_work(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        runner = make_runner(cluster, store, injector)
        runner.repair(report.failed_chunks)
        cluster.sim.run(until=0.05)
        touched = {
            helper
            for instance in runner.in_flight.values()
            for helper in instance.plan.source_nodes
        }
        victim = sorted(touched)[0]
        runner.helper_suspected(victim)
        assert runner.suspect_replans > 0
        cluster.sim.run()
        assert runner.done
        assert len(runner.completed) == len(report.failed_chunks)


class TestRetryTimeoutInteraction:
    """Regression battery for the watchdog/retry identity guards.

    A watchdog scheduled at launch time holds a reference to that
    attempt's :class:`PlanInstance`. Once a retry relaunches the chunk,
    the stale timer must not shoot down the new attempt, a duplicate
    failure report for the dead instance must not schedule a second
    retry, and a spurious retry timer must not double-launch — the
    ``in_flight.get(chunk) is instance`` identity guards and the
    ``_retry_wait`` membership check are what these tests pin down.
    """

    def test_stale_watchdog_spares_the_relaunched_attempt(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        repairer = make_runner(
            cluster, store, injector, chunk_timeout=500.0, retry_backoff=0.5
        )
        repairer.repair([chunk])
        first = repairer.in_flight[chunk]
        first.fail("injected helper loss")
        cluster.sim.run(until=cluster.sim.now + 1.0)  # past the backoff
        second = repairer.in_flight[chunk]
        assert second is not first
        # The attempt-1 watchdog fires long after the relaunch: the
        # identity guard must keep it away from attempt 2.
        repairer._check_timeout(chunk, first)
        assert repairer.in_flight.get(chunk) is second
        assert run_until_done(cluster, repairer)
        assert repairer.completed == [chunk] and repairer.lost == []
        assert repairer.retries == 1

    def test_watchdog_is_inert_after_completion(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        repairer = make_runner(cluster, store, injector, chunk_timeout=500.0)
        repairer.repair([chunk])
        instance = repairer.in_flight[chunk]
        assert run_until_done(cluster, repairer)
        failed = []
        repairer.on("chunk_failed", lambda r, **kw: failed.append(kw["chunk"]))
        repairer._check_timeout(chunk, instance)
        assert failed == [] and repairer.completed == [chunk]

    def test_duplicate_failure_report_cannot_double_retry(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        repairer = make_runner(cluster, store, injector, retry_backoff=0.5)
        repairer.repair([chunk])
        first = repairer.in_flight[chunk]
        first.fail("injected")
        assert chunk in repairer._retry_wait
        # A second failure report for the same dead instance (a watchdog
        # racing the flow-failure callback) must be dropped, not queue a
        # second backoff timer.
        repairer._instance_failed(chunk, first, "duplicate report")
        cluster.sim.run(until=cluster.sim.now + 1.0)
        assert repairer.retries == 1
        assert repairer.in_flight.get(chunk) is not None
        assert run_until_done(cluster, repairer)
        assert repairer.completed == [chunk]

    def test_spurious_retry_timer_is_a_noop(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunk = report.failed_chunks[0]
        repairer = make_runner(cluster, store, injector)
        repairer.repair([chunk])
        instance = repairer.in_flight[chunk]
        repairer._retry(chunk)  # chunk never entered _retry_wait
        assert repairer.retries == 0
        assert repairer.in_flight[chunk] is instance
        assert chunk not in repairer.pending

    def test_all_done_fires_exactly_once_when_retries_exhaust(self):
        """Losing the last chunks through the retry path must emit
        ``all_done`` exactly once (the ``_finished`` latch): _retry can
        reach _finish through a failed launch and again on its way out."""
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        chunks = report.failed_chunks[:3]
        repairer = make_runner(
            cluster, store, injector,
            max_retries=1, retry_backoff=0.2, chunk_timeout=0.01,
        )
        done_events = []
        repairer.on("all_done", lambda r: done_events.append(cluster.sim.now))
        repairer.repair(chunks)
        run_until_done(cluster, repairer, limit=100.0, step=1.0)
        assert repairer.done
        assert set(repairer.lost) == set(chunks)
        assert len(done_events) == 1


class TestAddChunks:
    def test_add_before_start_rejected(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_runner(cluster, store, injector)
        with pytest.raises(SchedulingError):
            repairer.add_chunks(report.failed_chunks)

    def test_add_deduplicates(self):
        cluster, store, injector = make_env()
        report = injector.fail_nodes([0])
        repairer = make_runner(cluster, store, injector)
        repairer.repair(report.failed_chunks)
        adopted = repairer.add_chunks(report.failed_chunks)
        assert adopted == []  # everything already pending or in flight

    def test_add_after_done_reopens_the_batch(self):
        cluster, store, injector = make_env()
        repairer = make_runner(cluster, store, injector)
        repairer.repair([])
        cluster.sim.run()
        assert repairer.done
        first_elapsed = repairer.meter.elapsed
        report = injector.fail_nodes([2])
        adopted = repairer.add_chunks(report.failed_chunks)
        assert adopted == list(report.failed_chunks)
        assert not repairer.done
        assert run_until_done(cluster, repairer)
        assert set(repairer.completed) >= set(report.failed_chunks)
        assert repairer.meter.elapsed > first_elapsed
