"""Unit tests for the four synthetic trace generators."""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import KB
from repro.errors import SimulationError
from repro.sim import Simulator
from repro.traffic import (
    TRACE_FACTORIES,
    TransitioningTrace,
    facebook_etc,
    ibm_object_store,
    make_trace,
    memcached_twitter,
    uniform_trace,
    ycsb_a,
)


def op_mix(generator, n=4000):
    ops = [generator.next_request().op for _ in range(n)]
    return ops.count("read") / n


class TestYCSBA:
    def test_balanced_mix(self):
        assert op_mix(ycsb_a(seed=1)) == pytest.approx(0.5, abs=0.05)

    def test_fixed_value_size(self):
        gen = ycsb_a(seed=2)
        sizes = {gen.next_request().size for _ in range(100)}
        assert sizes == {512 * KB}

    def test_zipfian_keys(self):
        gen = ycsb_a(seed=3)
        keys = [gen.next_request().key for _ in range(3000)]
        assert sum(1 for k in keys if k < 10) / len(keys) > 0.2


class TestIBM:
    def test_read_heavy(self):
        assert op_mix(ibm_object_store(seed=4)) == pytest.approx(0.78, abs=0.05)

    def test_wildly_varied_sizes(self):
        gen = ibm_object_store(seed=5)
        sizes = [gen.next_request().size for _ in range(2000)]
        assert min(sizes) < 1000
        assert max(sizes) > 10e6
        assert max(sizes) <= 256e6  # capped for simulation scale


class TestMemcached:
    def test_get_set_mix(self):
        assert op_mix(memcached_twitter(seed=6)) == pytest.approx(0.63, abs=0.05)

    def test_small_values(self):
        gen = memcached_twitter(seed=7)
        sizes = [gen.next_request().size for _ in range(20_000)]
        assert np.mean(sizes) == pytest.approx(20_134, rel=0.2)


class TestFacebookETC:
    def test_read_dominated(self):
        assert op_mix(facebook_etc(seed=8)) == pytest.approx(30 / 31, abs=0.02)

    def test_pareto_values(self):
        gen = facebook_etc(seed=9)
        sizes = [gen.next_request().size for _ in range(3000)]
        assert max(sizes) > 20 * np.median(sizes)


class TestFactoryAndMisc:
    def test_make_trace_all_names(self):
        for name in ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC"):
            gen = make_trace(name, seed=1)
            assert gen.name == name
            req = gen.next_request()
            assert req.op in ("read", "update") and req.size > 0

    def test_make_trace_unknown(self):
        with pytest.raises(SimulationError):
            make_trace("NoSuchTrace")

    def test_requests_iterator_count(self):
        gen = uniform_trace(seed=10)
        assert len(list(gen.requests(25))) == 25

    def test_invalid_read_ratio(self):
        from repro.traffic.traces import TraceGenerator
        from repro.traffic import FixedSize, UniformSampler

        with pytest.raises(SimulationError):
            TraceGenerator(
                "bad", read_ratio=1.5,
                key_sampler=UniformSampler(10), size_sampler=FixedSize(1),
            )

    def test_deterministic_with_seed(self):
        a = [ycsb_a(seed=42).next_request() for _ in range(5)]
        b = [ycsb_a(seed=42).next_request() for _ in range(5)]
        assert a == b


class TestTransitioningTrace:
    def test_switches_generator_over_time(self):
        sim = Simulator()
        t = TransitioningTrace(
            sim, [(10.0, ycsb_a(seed=1)), (10.0, memcached_twitter(seed=2))]
        )
        assert t.active_generator(5.0).name == "YCSB-A"
        assert t.active_generator(15.0).name == "Memcached"
        # Cycles after the last segment.
        assert t.active_generator(25.0).name == "YCSB-A"

    def test_uses_sim_clock(self):
        sim = Simulator()
        t = TransitioningTrace(
            sim, [(1.0, ycsb_a(seed=1)), (1.0, ibm_object_store(seed=2))]
        )
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert t.active_generator().name == "IBM-OS"

    def test_name_concatenates(self):
        sim = Simulator()
        t = TransitioningTrace(sim, [(1.0, ycsb_a()), (1.0, facebook_etc())])
        assert t.name == "YCSB-A+Facebook-ETC"

    def test_empty_segments_rejected(self):
        with pytest.raises(SimulationError):
            TransitioningTrace(Simulator(), [])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(SimulationError):
            TransitioningTrace(Simulator(), [(0.0, ycsb_a())])


#: SHA-256 of the JSON list of the first 2 000 ``(op, key, size)`` draws of
#: each trace at seed 0. Every simulated result downstream replays these
#: streams, so a change to how a request is drawn or built (its type, the
#: order of the draws, pre-drawn bunches) must show here first.
TRACE_STREAM_DIGESTS = {
    "YCSB-A": "cc87fe7c7a62175e577decae339f1229623dd0643f64e103cd96eef122f3da2d",
    "IBM-OS": "b6dafa40a3df73d215ca3303c4c1ad2bba89ec7e86d48094044fc24bd988580b",
    "Memcached": "8e4a0bf242a49c0f5db4e03da8fdf1ede66bd7772ff96bfa7aeee3f4c64f9980",
    "Facebook-ETC": "7af03330f1616555ffb08b53035e9fa88690e6cd9701ad8313694ff88a7d06bc",
}


@pytest.mark.parametrize("name", sorted(TRACE_STREAM_DIGESTS))
def test_trace_stream_golden(name):
    draws = [(r.op, r.key, r.size) for r in make_trace(name, seed=0).requests(2000)]
    assert all(type(key) is int and type(size) is float for _, key, size in draws)
    digest = hashlib.sha256(json.dumps(draws).encode()).hexdigest()
    assert digest == TRACE_STREAM_DIGESTS[name]


def test_trace_stream_golden_covers_every_trace():
    assert set(TRACE_STREAM_DIGESTS) == set(TRACE_FACTORIES)
