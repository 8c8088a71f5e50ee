"""Tests of the benchmark harness itself (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py -q

Workloads run in-process at their ``tiny`` sizes, a few seconds in all.
"""

import dataclasses
import functools
import json

import compare
import pytest
import run
import spans

CONTRACT = run.ROOT / "BENCHMARK.json"


def test_self_time_is_duration_minus_children():
    # engine 0..100 { flows 10..40 { allocator 20..30 }, flows 50..70 }, api 110..120
    log = spans.SpanLog()
    rows = [
        ("Simulator.run", "sim.engine", 0, 100, -1),
        ("event a", "sim.flows", 10, 40, 0),
        ("RateAllocator.recompute", "sim.allocator", 20, 30, 1),
        ("event b", "sim.flows", 50, 70, 0),
        ("Testbed.fail_nodes", "api", 110, 120, -1),
    ]
    for i, (name, layer, start, end, parent) in enumerate(rows):
        log.name_id[i] = log.intern(name, layer)
        log.start[i], log.end[i], log.parent[i] = start, end, parent
    log.count = len(rows)

    agg = log.aggregate(0, log.count, wall_s=130e-9)
    self_ns = {layer: round(v["self_s"] * 1e9) for layer, v in agg["layers"].items()}
    assert self_ns["sim.engine"] == 100 - 30 - 20
    assert self_ns["sim.flows"] == (30 - 10) + 20
    assert self_ns["sim.allocator"] == 10
    assert self_ns["api"] == 10
    assert agg["layers"]["sim.flows"]["calls"] == 2
    assert round(agg["unattributed_s"] * 1e9) == 130 - 100 - 10
    total = sum(v["self_s"] for v in agg["layers"].values()) + agg["unattributed_s"]
    assert total == pytest.approx(agg["wall_s"])
    # A window over the last span alone sees it as a root.
    tail = log.aggregate(4, 5, wall_s=10e-9)
    assert tail["spans"] == 1 and round(tail["unattributed_s"] * 1e9) == 0


def test_layer_of_callback():
    run.measure("hot_mix", 0, tiny=True)  # puts src/ on sys.path
    import repro
    from repro.traffic.traces import make_trace

    sim = repro.Simulator()
    assert spans.callback_layer(sim.stop) == "sim.engine"
    assert spans.callback_layer(make_trace("YCSB-A").next_request) == "traffic"
    assert spans.callback_layer(repro.Testbed.build) == "api"  # classmethod
    assert spans.callback_layer(functools.partial(sim.run, until=1.0)) == "sim.engine"
    # A lambda belongs to the module it was written in, not to what it calls.
    written_in_repair = lambda: sim.stop()
    written_in_repair.__module__ = "repro.repair.runner"
    assert spans.callback_layer(written_in_repair) == "repair"
    assert spans.callback_layer(functools.partial(written_in_repair)) == "repair"
    assert spans.callback_layer(lambda: None) == "other"  # this test module
    assert spans.callback_layer([].append) == "other"

    assert spans.layer_of_module("repro.sim.events") == "sim.engine"
    assert spans.layer_of_module("repro.gf.field") == "codes"
    assert spans.layer_of_module("repro.core.planner") == "core"
    assert spans.layer_of_module("repro.control.admission") == "other"
    assert spans.layer_of_module("numpy.random") == "other"


def _wrapped_attributes():
    import repro
    from repro.sim.allocator import RateAllocator
    from repro.sim.flows import FlowScheduler

    classes = (repro.Simulator, RateAllocator, FlowScheduler, repro.Testbed,
               repro.Cluster, repro.Journal, repro.ChameleonRepair)
    return {(cls, name): value for cls in classes for name, value in vars(cls).items()}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_is_read_only_and_leaves_nothing_behind(workload):
    plain = run.measure(workload, 0, tiny=True)
    import repro
    from repro.obs.metrics import get_registry

    before = _wrapped_attributes()
    reconcile = repro.reconcile
    traced = run.measure(workload, 0, tiny=True, trace=True)

    assert plain["ops_failed"] == 0 and traced["ops_failed"] == 0
    assert traced["sim_digest"] == plain["sim_digest"]
    assert traced["sim_throughput_mbs"] == plain["sim_throughput_mbs"]
    assert traced["trace"]["timed"]["spans"] > 0
    after = _wrapped_attributes()
    assert all(after[key] is value for key, value in before.items())
    assert repro.reconcile is reconcile
    assert not get_registry().enabled

    block = run.summarise(workload, 0, [plain], traced)
    assert block["correct"], block["failures"]
    timed = traced["trace"]["timed"]
    layers = sum(v["self_s"] for v in timed["layers"].values())
    assert layers + timed["unattributed_s"] == pytest.approx(timed["wall_s"])
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    assert list(block["per_layer"]) == [m["name"] for m in contract["per_layer"]]
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == {
        name: m["unit"] for name, m in block["per_layer"].items()
    }


def test_contract_lists_the_runner_s_workloads_and_metrics():
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in contract["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()
    }


def test_a_run_that_skips_a_chunk_is_a_failed_op_not_a_fast_run(monkeypatch):
    good = run.measure("fg_ycsb", 0, tiny=True)
    import workloads

    spec = workloads.WORKLOADS["fg_ycsb"]

    def skip_last_chunk(state):
        _, testbed = state
        make_repairer = testbed.make_repairer

        def lazy(name, **overrides):
            repairer = make_repairer(name, **overrides)
            repair = repairer.repair
            repairer.repair = lambda chunks: repair(chunks[:-1])
            return repairer

        testbed.make_repairer = lazy
        return spec.run(state)

    monkeypatch.setitem(workloads.WORKLOADS, "fg_ycsb",
                        dataclasses.replace(spec, run=skip_last_chunk))
    broken = run.measure("fg_ycsb", 0, tiny=True)
    assert broken["ops_failed"] == 1
    assert broken["ops_attempted"] == good["ops_attempted"]
    assert "every failed chunk repaired" in broken["failures"][0]

    block = run.summarise("fg_ycsb", 0, [good, broken])
    assert not block["correct"]
    assert block["ops_failed"] >= 1
    # The broken repetition's (shorter) time is in no median.
    assert block["end_to_end"]["wall_s"]["values"] == [good["wall_s"]]
    assert "end_to_end" not in run.summarise("fg_ycsb", 0, [broken])


def test_steady_values_follow_the_code_not_the_box():
    quiet = run.measure("hot_mix", 0, tiny=True)
    # The same repetition taken in a slow spell: every host time 1.4x.
    slow = {**quiet, "wall_s": quiet["wall_s"] * 1.4, "setup_s": quiet["setup_s"] * 1.4,
            "ref_s": [sample * 1.4 for sample in quiet["ref_s"]]}
    a = run.summarise("hot_mix", 0, [quiet])["end_to_end"]
    b = run.summarise("hot_mix", 0, [slow])["end_to_end"]
    for name in run.STEADY:
        assert b[name]["median"] == pytest.approx(1.4 * a[name]["median"])
        assert b[name]["steady"] == pytest.approx(a[name]["steady"])
    assert "steady" not in a["peak_rss_mb"]


def _document(**changes):
    metric = {"unit": "s", "clock": "host", "median": 10.0, "q1": 9.9, "q3": 10.1, "n": 5}
    sim = {"unit": "MB/s", "clock": "sim", "median": 700.0, "q1": 700.0, "q3": 700.0, "n": 5}
    block = {
        "seed": 0, "sizes": {"scale": 0.3}, "sim_digest": "abc",
        "ops_attempted": 62, "ops_failed": 0,
        "end_to_end": {"wall_s": dict(metric), "sim_throughput_mbs": dict(sim)},
    }
    for path, value in changes.items():
        target = block
        *parents, leaf = path.split("/")
        for key in parents:
            target = target[key]
        target[leaf] = value
    return {"workloads": {"fg_ycsb": block}}


def test_compare_flags_what_got_worse():
    base = _document()
    assert compare.compare(base, _document())[1] == []
    faster = _document(**{"end_to_end/wall_s/median": 5.0})
    assert compare.compare(base, faster)[1] == []

    too_slow = 10.0 * (1.01 + compare.HOST_BOUNDS["wall_s"])
    slower = _document(**{"end_to_end/wall_s/median": too_slow})
    assert "wall_s" in compare.compare(base, slower)[1][0]
    bent = _document(**{"end_to_end/sim_throughput_mbs/median": 700.0 * (1 + 1e-6)})
    assert "sim_throughput_mbs" in compare.compare(base, bent)[1][0]
    assert "sim_digest" in compare.compare(base, _document(sim_digest="abd"))[1][0]
    assert "failed-op rate" in compare.compare(base, _document(ops_failed=1))[1][0]
    assert "not comparable" in compare.compare(base, _document(seed=1))[1][0]

    noisy = _document(**{"end_to_end/wall_s/q3": 13.0})
    lines, failures = compare.compare(base, noisy)
    assert failures == [] and any("unresolved" in line for line in lines)
