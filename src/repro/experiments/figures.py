"""Figures 2, 5, and 6: reliability analysis and link-utilisation studies."""

from __future__ import annotations

from repro.analysis.reliability import ReliabilityModel, loss_probability_curve
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, run_sim_until
from repro.api import Testbed
from repro.errors import SimulationError
from repro.sim.resources import REPAIR_TAG, ResourceWindows, non_repair_bytes

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


def close_link_windows(links: ResourceWindows, series: dict, window: float) -> None:
    """Append each link's repair and foreground B/s over the fixed
    ``window`` to its ``series[link] = (repair, foreground)`` lists."""
    for res, before, now in links.close():
        repair, foreground = series[res]
        repair.append((now.get(REPAIR_TAG, 0.0) - before.get(REPAIR_TAG, 0.0)) / window)
        foreground.append((non_repair_bytes(now) - non_repair_bytes(before)) / window)


def fluctuation_stats(links: list) -> tuple[float, float, float]:
    """(mean, min, max) over ``(repair, foreground)`` link series of each
    link's max-minus-min foreground B/s (Fig. 5)."""
    values = [max(fg) - min(fg) if fg else 0.0 for _, fg in links]
    if not values:
        return 0.0, 0.0, 0.0
    return sum(values) / len(values), min(values), max(values)


def most_and_least_loaded(links: list) -> tuple[tuple[float, float], tuple[float, float]]:
    """Mean (repair, foreground) B/s of the most- and the least-loaded
    ``(repair, foreground)`` link series by mean total (Fig. 6)."""
    if not links:
        raise SimulationError("no links tracked")
    means = sorted(
        (tuple(sum(s) / len(s) if s else 0.0 for s in link) for link in links),
        key=lambda m: m[0] + m[1],
    )
    return means[-1], means[0]


def _link_series(config: ExperimentConfig, algorithm: str, window: float):
    """Run a repair under YCSB-A; sample per-window link bandwidth.

    Returns the (uplink, downlink) series of the alive storage nodes.
    """
    scenario = Testbed.build(config)
    scenario.start_foreground()
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + window)
    report = scenario.fail_nodes(1)
    repairer = scenario.make_repairer(algorithm)
    alive = [n for n in scenario.cluster.storage_nodes if n.alive]
    series = {res: ([], []) for res in [n.uplink for n in alive] + [n.downlink for n in alive]}
    links = ResourceWindows(series)

    def tick():
        """Close one sampling window; the first close after the repair
        finished is the last."""
        scenario.cluster.flows.settle_now()
        close_link_windows(links, series, window)
        if repairer.done:
            hook.cancel()

    repairer.repair(report.failed_chunks)
    hook = scenario.cluster.sim.every(window, tick)
    run_sim_until(scenario.cluster, lambda: repairer.done)
    scenario.stop_foreground()
    return [series[n.uplink] for n in alive], [series[n.downlink] for n in alive]


def fig5_grid(scale: float, seed: int):
    """Fig. 5: foreground-bandwidth fluctuation per time window.

    Cells keyed "uplink"/"downlink": (mean, min, max) fluctuation in
    Gb/s. The paper uses 15 s windows; the window shrinks with scale.
    """
    config = ExperimentConfig.scaled(scale, seed=seed)
    uplinks, downlinks = _link_series(config, "CR", _scaled_window(config))
    yield "uplink", tuple(v * TO_GBPS for v in fluctuation_stats(uplinks))
    yield "downlink", tuple(v * TO_GBPS for v in fluctuation_stats(downlinks))


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
        uplinks, downlinks = _link_series(config, algorithm, _scaled_window(config))
        for direction, links in (("up", uplinks), ("down", downlinks)):
            for which, (repair, fg) in zip(("ML", "LL"), most_and_least_loaded(links)):
                yield (algorithm, direction, which), (repair * TO_GBPS, fg * TO_GBPS)


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
