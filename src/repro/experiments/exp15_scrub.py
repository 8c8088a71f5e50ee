"""Exp#15: background scrubbing — detection latency vs foreground cost.

A scrubber is the one repair-adjacent workload that runs *all the time*:
its disk reads and cross-node verification flows share the storage
nodes' disk-read and uplink bandwidth with foreground YCSB traffic.
This experiment sweeps the scrub rate and measures both sides of the
trade-off the paper's interference story predicts:

* **detection latency** — virtual seconds from a silent corruption's
  injection to the scrubber catching it (faster scans catch rot sooner);
* **foreground P99 inflation** — tail latency relative to the no-scrub
  baseline (faster scans steal more bandwidth from clients).

The scrub rate is expressed as *intensity*: the fraction of one storage
node's disk-read bandwidth the scrubber targets (the way operational
scrubbers are budgeted — e.g. Ceph's scrub sleep). Intensity 1.0 keeps
one scrub read in flight back-to-back; 0.25 idles three quarters of the
time. Bit-rot lands via a seeded ``rot()`` timeline *before* the scan
starts, and the measurement window is sized so the slowest swept rate
completes one full pass — every corruption is therefore detected in
every non-zero run, and mean detection latency is governed by the scan
rate alone.

Chunks are shrunk to 16 MB here (repair experiments use the paper's
64 MB): a scrub pass reads the whole store, and the smaller chunk keeps
the pass — and hence the simulated window — bounded at small ``--scale``
without changing the contention mechanism being measured.
"""

from __future__ import annotations

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import Sweep, ratio

#: Scrub rate as a fraction of one node's disk-read bandwidth
#: (0 = no scrubber: the P99 baseline).
INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: Chunk size for this experiment (MB); see module docstring.
CHUNK_MB = 16.0

#: Silent corruptions / latent sector errors injected per run.
CORRUPTIONS = 6
SECTOR_ERRORS = 2

#: The scan window is this multiple of a full pass at the slowest
#: non-zero swept rate (margin for contention slowing the scan down).
PASS_MARGIN = 1.15


def run_one(
    config: ExperimentConfig,
    intensity: float,
    *,
    rot_horizon: float,
    scan_window: float,
) -> dict:
    """One fixed-duration run: foreground + bit-rot + paced scrubbing."""
    testbed = Testbed.build(config)
    testbed.enable_integrity()
    testbed.start_foreground()
    start = testbed.cluster.sim.now
    testbed.inject_bitrot(
        corruptions=CORRUPTIONS,
        sector_errors=SECTOR_ERRORS,
        horizon=rot_horizon,
    )
    # All rot lands before the scan starts: one pass then catches
    # everything, and detection latency is a pure function of scan rate.
    testbed.cluster.sim.run(until=start + rot_horizon)
    rate_mbs = intensity * config.disk_bw / 1e6
    if intensity > 0:
        testbed.start_scrubber(rate_mbs=rate_mbs)
    testbed.cluster.sim.run(until=start + rot_horizon + scan_window)
    if testbed.scrubber is not None:
        testbed.scrubber.stop()
    testbed.stop_foreground()
    testbed.run_until(testbed.foreground_done, step=1.0)

    summary = testbed.ledger.summary()
    return {
        "rate_mbs": rate_mbs,
        "p99_latency_s": testbed.latency.p99 if testbed.latency else 0.0,
        "injected": int(summary["injected"]),
        "detected": int(summary["detected"]),
        "mean_detection_latency_s": summary["mean_detection_latency"],
        "max_detection_latency_s": summary["max_detection_latency"],
        "chunks_scanned": (
            testbed.scrubber.chunks_scanned if testbed.scrubber else 0
        ),
    }


def grid(scale: float, seed: int):
    """Cells keyed by scrub intensity, across the scrub-rate sweep."""
    config = ExperimentConfig.scaled(scale, seed=seed, chunk_mb=CHUNK_MB)
    # Size the shared window off the store (a cheap probe testbed — the
    # stripe count depends on placement) and the slowest non-zero rate.
    probe = Testbed.build(config)
    store_bytes = len(probe.store) * probe.code.n * config.chunk_size
    slowest = min(i for i in INTENSITIES if i > 0)
    scan_window = PASS_MARGIN * store_bytes / (slowest * config.disk_bw)
    rot_horizon = 0.5 * config.t_phase
    for intensity in INTENSITIES:
        yield intensity, run_one(
            config, intensity, rot_horizon=rot_horizon, scan_window=scan_window
        )


def rows(cells: dict) -> list[list]:
    """Table rows: the detection-latency / P99-inflation trade-off."""
    baseline = cells[0.0]
    out = []
    for intensity, cell in cells.items():
        out.append(
            [
                intensity,
                cell["rate_mbs"],
                cell["p99_latency_s"] * 1e3,
                ratio(cell["p99_latency_s"], baseline["p99_latency_s"]),
                f"{cell['detected']}/{cell['injected']}",
                cell["mean_detection_latency_s"],
                cell["max_detection_latency_s"],
                cell["chunks_scanned"],
            ]
        )
    return out


HEADERS = [
    "intensity",
    "rate MB/s",
    "P99 ms",
    "P99 inflation",
    "detected",
    "mean detect s",
    "max detect s",
    "scanned",
]

SWEEP = Sweep(
    "exp15_scrub",
    grid,
    [("Exp#15: background scrubbing (detection latency vs P99 inflation)", HEADERS, rows)],
)
