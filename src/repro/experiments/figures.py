"""Figures 2, 5, and 6: reliability analysis and link-utilisation studies."""

from __future__ import annotations

from repro.analysis.reliability import ReliabilityModel, loss_probability_curve
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_sim_until
from repro.api import Testbed
from repro.metrics.linkstats import LinkStatsCollector

FIG2_THROUGHPUTS_MBS = [50, 100, 200, 400, 800, 1600]


def run_fig2(throughputs_mbs=None) -> list[tuple[float, float]]:
    """Fig. 2: data-loss probability vs repair throughput (k=10, m=4)."""
    pts = throughputs_mbs if throughputs_mbs is not None else FIG2_THROUGHPUTS_MBS
    return loss_probability_curve(pts, ReliabilityModel(k=10, m=4))


def fig2_rows(curve: list[tuple[float, float]]) -> list[list]:
    """Fig. 2 table rows from the reliability curve."""
    return [[f"{t:g} MB/s", p] for t, p in curve]


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


def run_fig5(scale: float = 0.12, seed: int = 0) -> dict[str, tuple[float, float, float]]:
    """Fig. 5: foreground-bandwidth fluctuation per time window.

    Returns {"uplink"/"downlink": (mean, min, max) fluctuation in Gb/s}.
    The paper uses 15 s windows; the window shrinks with scale.
    """
    config = ExperimentConfig.scaled(scale, seed=seed)
    window = _scaled_window(config)
    uplinks, downlinks = _collect_link_stats(config, "CR", window)
    to_gbps = 8 / 1e9
    return {
        "uplink": tuple(v * to_gbps for v in uplinks.fluctuation_stats()),
        "downlink": tuple(v * to_gbps for v in downlinks.fluctuation_stats()),
    }


def fig5_rows(stats: dict) -> list[list]:
    """Fig. 5 table rows from the fluctuation statistics."""
    return [
        [direction, mean, lo, hi] for direction, (mean, lo, hi) in stats.items()
    ]


def run_fig6(
    scale: float = 0.12,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("CR", "PPR", "ECPipe"),
) -> dict[tuple[str, str, str], tuple[float, float]]:
    """Fig. 6: most/least-loaded link utilisation split by traffic class.

    Returns {(algorithm, "up"/"down", "ML"/"LL"):
             (repair Gb/s, foreground Gb/s)}.
    """
    out: dict[tuple[str, str, str], tuple[float, float]] = {}
    to_gbps = 8 / 1e9
    for algorithm in algorithms:
        config = ExperimentConfig.scaled(scale, seed=seed)
        window = _scaled_window(config)
        uplinks, downlinks = _collect_link_stats(config, algorithm, window)
        for direction, collector in (("up", uplinks), ("down", downlinks)):
            most, least = collector.most_and_least_loaded()
            out[(algorithm, direction, "ML")] = (
                most.mean_repair() * to_gbps,
                most.mean_foreground() * to_gbps,
            )
            out[(algorithm, direction, "LL")] = (
                least.mean_repair() * to_gbps,
                least.mean_foreground() * to_gbps,
            )
    return out


def fig6_rows(stats: dict) -> list[list]:
    """Fig. 6 table rows from the ML/LL link statistics."""
    rows = []
    for (algorithm, direction, which), (repair, fg) in sorted(stats.items()):
        rows.append([f"{algorithm}_{which} ({direction})", repair, fg, repair + fg])
    return rows


FIG2_TABLES = [("Fig 2: Pr_dl vs repair throughput", ["repair throughput", "Pr_dl"], fig2_rows)]
FIG5_HEADERS = ["direction", "mean", "min", "max"]
FIG5_TABLES = [("Fig 5: foreground bandwidth fluctuation (Gb/s)", FIG5_HEADERS, fig5_rows)]
FIG6_HEADERS = ["link", "repair", "foreground", "total"]
FIG6_TABLES = [("Fig 6: most/least-loaded link bandwidth (Gb/s)", FIG6_HEADERS, fig6_rows)]
