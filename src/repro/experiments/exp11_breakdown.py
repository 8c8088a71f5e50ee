"""Exp#11 (Fig. 22): breakdown study with an injected straggler.

Decomposes ChameleonEC into ETRP (tunable plans only) and ETRP+SAR (the
full system with straggler-aware re-scheduling). A straggler is mimicked
the paper's way: 24 reader threads continuously pulling 1 MB objects
from one node participating in the repair, started 0 / 5 / 10 seconds
into a phase. The metric is repair throughput over that phase.
"""

from __future__ import annotations

from repro.cluster.node import MB
from repro.cluster.topology import Cluster
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import WARMUP, Sweep, pivot_rows, run_sim_until
from repro.api import Testbed

ALGORITHMS = ("CR", "PPR", "ECPipe", "ETRP", "ChameleonEC")
PAPER_OFFSETS = (0.0, 5.0, 10.0)

#: The hog: this many closed-loop readers of ``OBJECT_MB`` objects each.
THREADS = 24
OBJECT_MB = 1.0

#: The node the hog reads from (a helper of every repair).
STRAGGLER_NODE = 1


class StragglerLoad:
    """Closed-loop readers hammering one node's uplink (the Redis hog)."""

    def __init__(self, cluster: Cluster, node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.active = False
        self._seq = 0

    def start(self) -> None:
        """Launch the reader threads against the target node."""
        self.active = True
        # Spread hog endpoints over every client machine so the target
        # node's link — not a single client's — is the bottleneck.
        self._sinks = [c.id for c in self.cluster.clients]
        for _ in range(THREADS):
            self._issue()

    def stop(self) -> None:
        """Stop issuing further hog reads (in-flight ones finish)."""
        self.active = False

    def _issue(self) -> None:
        if not self.active:
            return
        self._seq += 1
        if not self._sinks:  # pragma: no cover - clusters always have clients
            return
        sink = self._sinks[self._seq % len(self._sinks)]
        transfer = self.cluster.make_transfer(
            self.node_id,
            sink,
            OBJECT_MB * MB,
            OBJECT_MB * MB,
            tag="straggler",
            read_disk=True,
            name=f"hog-r{self._seq}",
        )
        transfer.on_complete.append(lambda _t: self._issue())
        self.cluster.start(transfer)


def phase_throughput_with_straggler(
    config: ExperimentConfig, algorithm: str, offset: float
) -> float:
    """Repair throughput (MB/s) of the phase containing the straggler."""
    scenario = Testbed.build(config)
    scenario.start_foreground()
    scenario.cluster.sim.run(until=scenario.cluster.sim.now + WARMUP)
    report = scenario.fail_nodes(1)
    repairer = scenario.make_repairer(algorithm)
    phase_start = scenario.cluster.sim.now
    repairer.repair(report.failed_chunks)
    hog = StragglerLoad(scenario.cluster, STRAGGLER_NODE)
    scenario.cluster.sim.call_at(phase_start + offset, hog.start)
    phase_end = phase_start + config.t_phase
    run_sim_until(
        scenario.cluster,
        lambda: repairer.done or scenario.cluster.sim.now >= phase_end,
        step=0.5,
    )
    hog.stop()
    scenario.stop_foreground()
    repaired = sum(
        nbytes
        for ts, nbytes in repairer.meter.events
        if phase_start <= ts <= phase_end
    )
    # Drain remaining repair so the run ends cleanly.
    run_sim_until(scenario.cluster, lambda: repairer.done, step=2.0)
    return repaired / config.t_phase / 1e6


def grid(scale: float, seed: int):
    """Cells keyed ``(paper offset, algorithm)``: phase repair MB/s."""
    config = ExperimentConfig.scaled(scale, seed=seed)
    factor = config.t_phase / 20.0  # paper offsets assume a 20 s phase
    for offset in PAPER_OFFSETS:
        for algorithm in ALGORITHMS:
            yield (offset, algorithm), phase_throughput_with_straggler(
                config, algorithm, offset * factor
            )


def rows(cells: dict) -> list[list]:
    """Table rows: phase throughput per straggler offset and algorithm."""
    return pivot_rows(
        cells, ALGORITHMS, lambda mbs: mbs, lambda offset: f"straggler@{offset:g}s"
    )


SWEEP = Sweep("exp11_breakdown", grid, [
    ("Exp#11 / Fig 22: phase throughput with straggler (MB/s)",
     ["straggler start", *ALGORITHMS], rows),
])
