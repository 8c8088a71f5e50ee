"""Tests for experiment configuration and the testbed it builds."""

import pytest

from repro.cluster import gbps, mbs
from repro.errors import ReproError
from repro.api import Testbed
from repro.experiments import ALL_ALGORITHMS, ExperimentConfig


class TestConfig:
    def test_paper_defaults(self):
        cfg = ExperimentConfig.paper()
        assert cfg.num_nodes == 20
        assert cfg.num_clients == 4
        assert cfg.link_bw == pytest.approx(gbps(10))
        assert cfg.disk_bw == pytest.approx(mbs(500))
        assert cfg.code == "RS(10,4)"
        assert cfg.chunk_size == 64e6
        assert cfg.slice_size == 1e6
        assert cfg.num_chunks == 200
        assert cfg.t_phase == 20.0

    def test_scaled_shrinks_batch(self):
        cfg = ExperimentConfig.scaled(0.1)
        assert cfg.num_chunks == 20
        assert cfg.requests_per_client is None
        assert cfg.t_phase < 20.0

    def test_scaled_overrides(self):
        cfg = ExperimentConfig.scaled(0.1, code="LRC(8,2,2)", link_gbps=1.0)
        assert cfg.code == "LRC(8,2,2)"
        assert cfg.link_bw == pytest.approx(gbps(1.0))

    def test_with_replaces_fields(self):
        cfg = ExperimentConfig.paper().with_(num_chunks=10)
        assert cfg.num_chunks == 10
        assert cfg.num_nodes == 20

    def test_invalid_scale(self):
        with pytest.raises(ReproError):
            ExperimentConfig.scaled(0.0)
        with pytest.raises(ReproError):
            ExperimentConfig.scaled(1.5)

    def test_invalid_fields(self):
        with pytest.raises(ReproError):
            ExperimentConfig(num_nodes=1)
        with pytest.raises(ReproError):
            ExperimentConfig(chunk_mb=0)
        with pytest.raises(ReproError):
            ExperimentConfig(num_chunks=0)


class TestTestbedSubstrate:
    def make(self, **overrides):
        return Testbed.build(ExperimentConfig.scaled(0.03, **overrides))

    def test_builds_cluster_and_store(self):
        scenario = self.make()
        assert len(scenario.cluster.storage_nodes) == 20
        assert len(scenario.store) >= scenario.config.num_chunks

    def test_fail_nodes_trims_to_num_chunks(self):
        scenario = self.make()
        report = scenario.fail_nodes(1)
        assert len(report.failed_chunks) == scenario.config.num_chunks

    @pytest.mark.parametrize("count", [0, -1])
    def test_fail_nodes_rejects_count_below_one(self, count):
        scenario = self.make()
        with pytest.raises(ReproError, match="count >= 1"):
            scenario.fail_nodes(count)
        assert not scenario.cluster.failed_node_ids()

    def test_every_algorithm_constructible(self):
        scenario = self.make()
        scenario.fail_nodes(1)
        for name in ALL_ALGORITHMS:
            repairer = scenario.make_repairer(name)
            assert repairer is not None

    def test_unknown_algorithm_rejected(self):
        scenario = self.make()
        with pytest.raises(ReproError):
            scenario.make_repairer("FancyRepair9000")

    def test_etrp_disables_rescheduling(self):
        scenario = self.make()
        etrp = scenario.make_repairer("ETRP")
        assert etrp.enable_reordering is False
        assert etrp.enable_retuning is False
        assert etrp.name == "ETRP"

    def test_io_variant_flag(self):
        scenario = self.make()
        io = scenario.make_repairer("ChameleonEC-IO")
        assert io.dispatcher.io_aware is True

    def test_foreground_round_trip(self):
        scenario = self.make()
        scenario.start_foreground()
        scenario.cluster.sim.run(until=1.0)
        assert any(c.issued > 0 for c in scenario.clients)
        scenario.stop_foreground()
        scenario.cluster.sim.run(until=3.0)
        assert scenario.foreground_done()
        assert scenario.latency.count > 0

    def test_transition_segments(self):
        scenario = self.make()
        scenario.start_foreground(
            transition_segments=[(1.0, "YCSB-A"), (1.0, "Memcached")]
        )
        gen = scenario.clients[0].generator
        assert gen.active_generator(0.5).name == "YCSB-A"
        assert gen.active_generator(1.5).name == "Memcached"
        scenario.stop_foreground()
