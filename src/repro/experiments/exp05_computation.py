"""Exp#5 (Fig. 16): coordinator computation time.

Measures the wall-clock time the ChameleonEC coordinator spends
dispatching tasks (Section III-A) and establishing plans (Algorithm 1)
for a batch of failed chunks, versus the number of storage nodes and the
number of chunks — no data is moved.
"""

from __future__ import annotations

import time

from repro.cluster.failures import FailureInjector
from repro.cluster.node import MB
from repro.cluster.placement import place_stripes
from repro.cluster.topology import Cluster
from repro.codes.registry import make_code
from repro.core.dispatch import TaskDispatcher
from repro.core.planner import build_plan
from repro.experiments.harness import Sweep, pivot_rows
from repro.monitor.bandwidth import BandwidthMonitor

NODE_COUNTS = (50, 100, 200, 500)
CHUNK_COUNTS = (200, 600, 1000)


def plan_generation_time(num_nodes: int, num_chunks: int, seed: int = 0) -> float:
    """Seconds of wall time to dispatch + plan ``num_chunks`` RS(10,4) repairs."""
    code = make_code("RS(10,4)")
    cluster = Cluster(num_nodes=num_nodes, num_clients=0)
    num_stripes = int(num_chunks * num_nodes / code.n * 1.3) + num_chunks
    store = place_stripes(
        code, num_stripes, cluster.storage_ids, chunk_size=64 * MB, seed=seed
    )
    injector = FailureInjector(cluster, store)
    report = injector.fail_nodes([0])
    chunks = report.failed_chunks[:num_chunks]
    monitor = BandwidthMonitor(cluster)
    dispatcher = TaskDispatcher(injector, monitor, chunk_size=64 * MB)
    dispatcher.begin_phase()
    start = time.perf_counter()
    for chunk in chunks:
        dispatch = dispatcher.dispatch_chunk(chunk, code)
        build_plan(dispatch, code, injector)
    return time.perf_counter() - start


def grid(scale: float, seed: int):
    """Cells keyed ``(nodes, chunks)``: planner seconds. Analytic in size,
    so ``scale`` is ignored."""
    for nodes in NODE_COUNTS:
        for chunks in CHUNK_COUNTS:
            yield (nodes, chunks), plan_generation_time(nodes, chunks, seed=seed)


def rows(cells: dict) -> list[list]:
    """Table rows: one per node count, seconds per chunk count."""
    return pivot_rows(cells, CHUNK_COUNTS, lambda seconds: seconds, lambda n: f"n={n}")


SWEEP = Sweep("exp05_computation", grid, [
    ("Exp#5 / Fig 16: plan-generation time (s)",
     ["nodes", *(f"{c} chunks" for c in CHUNK_COUNTS)], rows),
])
