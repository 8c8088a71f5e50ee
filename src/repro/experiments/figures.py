"""Figures 2, 5, and 6: reliability analysis and link-utilisation studies."""

from __future__ import annotations

from repro.analysis.reliability import ReliabilityModel, loss_probability_curve
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, run_sim_until
from repro.api import Testbed
from repro.metrics.linkstats import LinkStatsCollector

FIG2_THROUGHPUTS_MBS = [50, 100, 200, 400, 800, 1600]
FIG6_ALGORITHMS = ("CR", "PPR", "ECPipe")
TO_GBPS = 8 / 1e9


def fig2_grid(scale: float, seed: int):
    """Fig. 2: data-loss probability keyed by repair throughput (k=10,
    m=4). Analytic, so ``scale`` and ``seed`` are ignored."""
    yield from loss_probability_curve(FIG2_THROUGHPUTS_MBS, ReliabilityModel(k=10, m=4))


def fig2_rows(cells: dict) -> list[list]:
    """Fig. 2 table rows from the reliability curve."""
    return [[f"{t:g} MB/s", p] for t, p in cells.items()]


def _scaled_window(config: ExperimentConfig) -> float:
    """The paper's 15 s window, shrunk so a scaled repair spans ~10 windows."""
    return max(0.3, 15.0 * config.t_phase / 20.0 / 8.0)


def _collect_link_stats(
    config: ExperimentConfig, algorithm: str, window: float
) -> tuple[LinkStatsCollector, LinkStatsCollector]:
    """Run a repair under YCSB-A; sample per-window link bandwidth.

    Returns (uplink collector, downlink collector) over storage nodes.
    """
    scenario = Testbed.build(config)
    scenario.start_foreground()
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + window)
    report = scenario.fail_nodes(1)
    repairer = scenario.make_repairer(algorithm)
    uplinks = LinkStatsCollector(
        [n.uplink for n in scenario.cluster.storage_nodes if n.alive], window=window
    )
    downlinks = LinkStatsCollector(
        [n.downlink for n in scenario.cluster.storage_nodes if n.alive], window=window
    )

    def tick():
        """Close one sampling window and reschedule while repairing."""
        scenario.cluster.flows.settle_now()
        uplinks.sample()
        downlinks.sample()
        if not repairer.done:
            scenario.cluster.sim.schedule(window, tick)

    repairer.repair(report.failed_chunks)
    scenario.cluster.sim.schedule(window, tick)
    run_sim_until(scenario.cluster, lambda: repairer.done)
    scenario.stop_foreground()
    return uplinks, downlinks


def fig5_grid(scale: float, seed: int):
    """Fig. 5: foreground-bandwidth fluctuation per time window.

    Cells keyed "uplink"/"downlink": (mean, min, max) fluctuation in
    Gb/s. The paper uses 15 s windows; the window shrinks with scale.
    """
    config = ExperimentConfig.scaled(scale, seed=seed)
    uplinks, downlinks = _collect_link_stats(config, "CR", _scaled_window(config))
    yield "uplink", tuple(v * TO_GBPS for v in uplinks.fluctuation_stats())
    yield "downlink", tuple(v * TO_GBPS for v in downlinks.fluctuation_stats())


def fig5_rows(cells: dict) -> list[list]:
    """Fig. 5 table rows from the fluctuation statistics."""
    return [[direction, mean, lo, hi] for direction, (mean, lo, hi) in cells.items()]


def fig6_grid(scale: float, seed: int):
    """Fig. 6: most/least-loaded link utilisation split by traffic class.

    Cells keyed ``(algorithm, "up"/"down", "ML"/"LL")``:
    ``(repair Gb/s, foreground Gb/s)``.
    """
    config = ExperimentConfig.scaled(scale, seed=seed)
    for algorithm in FIG6_ALGORITHMS:
        uplinks, downlinks = _collect_link_stats(config, algorithm, _scaled_window(config))
        for direction, collector in (("up", uplinks), ("down", downlinks)):
            for which, link in zip(("ML", "LL"), collector.most_and_least_loaded()):
                yield (algorithm, direction, which), (
                    link.mean_repair() * TO_GBPS,
                    link.mean_foreground() * TO_GBPS,
                )


def fig6_rows(cells: dict) -> list[list]:
    """Fig. 6 table rows from the ML/LL link statistics."""
    return [
        [f"{algorithm}_{which} ({direction})", repair, fg, repair + fg]
        for (algorithm, direction, which), (repair, fg) in sorted(cells.items())
    ]


FIG2_SWEEP = Sweep("fig2_reliability", fig2_grid, [
    ("Fig 2: Pr_dl vs repair throughput", ["repair throughput", "Pr_dl"], fig2_rows),
])
FIG5_SWEEP = Sweep("fig5_fluctuation", fig5_grid, [
    ("Fig 5: foreground bandwidth fluctuation (Gb/s)", ["direction", "mean", "min", "max"],
     fig5_rows),
])
FIG6_SWEEP = Sweep("fig6_imbalance", fig6_grid, [
    ("Fig 6: most/least-loaded link bandwidth (Gb/s)",
     ["link", "repair", "foreground", "total"], fig6_rows),
])
