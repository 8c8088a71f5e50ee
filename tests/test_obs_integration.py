"""End-to-end observability: straggler events, harness spans, CLI flags."""

import json
import re

from repro.cluster import Cluster, FailureInjector, MB, mbs, place_stripes
from repro.codes import RSCode
from repro.core import ChameleonRepair
from repro.experiments import ExperimentConfig, run_repair_experiment
from repro.monitor import BandwidthMonitor
from repro.obs.export import chrome_trace_events
from repro.obs.report import build_report
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer, use_tracer
from repro.sim.flows import Flow

CHUNK = 16 * MB
SLICE = 4 * MB
NODE_TRACK = re.compile(r"n\d+\.(up|down|dread|dwrite)$")


def run_repair_with_slow_node(tracer):
    """One ChameleonEC repair where a survivor's uplink is hogged mid-run."""
    cluster = Cluster(
        num_nodes=12, num_clients=0, link_bw=mbs(25),
        disk_bw=mbs(1000),
    )
    tracer.bind_clock(cluster.sim)
    store = place_stripes(
        RSCode(4, 2), 30, cluster.storage_ids, chunk_size=CHUNK, seed=0
    )
    injector = FailureInjector(cluster, store)
    monitor = BandwidthMonitor(cluster)
    monitor.start()
    report = injector.fail_nodes([0])
    # Injected slow node: saturate a survivor's uplink shortly after the
    # dispatcher has formed expectations from the unloaded network.
    hog = Flow("hog", mbs(25) * 500, (cluster.node(1).uplink,), tag="hog")
    cluster.sim.schedule(1.0, lambda: cluster.flows.start_flow(hog))
    coord = ChameleonRepair(
        cluster, store, injector, monitor,
        chunk_size=CHUNK, slice_size=SLICE, t_phase=8.0,
        check_interval=0.5, straggler_threshold=0.5,
    )
    coord.repair(report.failed_chunks)
    while not coord.done and cluster.sim.now < 50_000:
        cluster.sim.run(until=cluster.sim.now + 10.0)
    assert coord.done
    return coord


class TestStragglerEvents:
    def test_slow_node_produces_detection_and_retune_pair(self):
        tracer = Tracer()
        with use_tracer(tracer):
            coord = run_repair_with_slow_node(tracer)
        detected = tracer.instants_named("straggler.detected")
        retuned = tracer.instants_named("plan.retuned")
        assert detected, "hogged uplink must trip straggler detection"
        assert retuned, "detected stragglers must lead to re-tuned plans"
        assert len(retuned) == coord.retunes + coord.replans
        # Every re-tune references the straggling task it replaces, and
        # fires at (or after) the detection that triggered it.
        first_detection = {}
        for event in detected:
            first_detection.setdefault(event.args["task_id"], event.ts)
        for event in retuned:
            orig = event.args["orig_task_id"]
            assert orig in first_detection
            assert event.ts >= first_detection[orig]
            assert event.args["kind"] in ("redirect", "replan")

    def test_no_events_recorded_without_tracer(self):
        assert get_tracer() is NULL_TRACER
        coord = run_repair_with_slow_node(NULL_TRACER)
        assert coord.done  # instrumentation is inert, behaviour unchanged


class TestHarnessTracing:
    def test_experiment_run_span_and_flow_tracks(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = run_repair_experiment(
                ExperimentConfig.scaled(0.03), "ChameleonEC", foreground=False
            )
        (run,) = tracer.spans_named("experiment.run")
        assert run.end is not None
        assert run.args["algorithm"] == "ChameleonEC"
        assert run.args["repair_time"] > 0
        assert run.args["chunks"] == result.chunks
        # Flow spans land on per-resource tracks (one row per node
        # uplink/downlink/disk in the exported trace).
        flow_tracks = {
            track for s in tracer.spans_named("flow") for track in s.track
        }
        assert any(NODE_TRACK.match(t) for t in flow_tracks)
        assert tracer.spans_named("phase"), "ChameleonEC runs record phases"
        assert tracer.instants_named("plan.chosen")

        events = chrome_trace_events(tracer)
        thread_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(NODE_TRACK.match(n) for n in thread_names)

        report = build_report(tracer)
        assert "Per-phase breakdown" in report
        assert "Slowest repair tasks" in report


class TestCLIFlags:
    def test_trace_and_report_flags(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "trace.json"
        assert main(["fig5", "--scale", "0.03", "--trace", str(path), "--report"]) == 0
        out = capsys.readouterr().out
        assert f"events written to {path}" in out
        assert "=== Run report ===" in out
        assert "Metrics" in out
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) > 100
        # The CLI restores the process-global tracer afterwards.
        assert get_tracer() is NULL_TRACER

    def test_flags_off_leave_globals_untouched(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig2"]) == 0
        assert get_tracer() is NULL_TRACER
