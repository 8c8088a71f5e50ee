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
from repro.monitor.bandwidth import BandwidthMonitor

NODE_COUNTS = (50, 100, 200, 500)
CHUNK_COUNTS = (200, 600, 1000)


def plan_generation_time(
    num_nodes: int, num_chunks: int, code_spec: str = "RS(10,4)", seed: int = 0
) -> float:
    """Seconds of wall time to dispatch + plan ``num_chunks`` repairs."""
    code = make_code(code_spec)
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


def run_exp05(
    node_counts: tuple[int, ...] = NODE_COUNTS,
    chunk_counts: tuple[int, ...] = CHUNK_COUNTS,
    seed: int = 0,
) -> dict[tuple[int, int], float]:
    """{(nodes, chunks): seconds} for the full grid."""
    results: dict[tuple[int, int], float] = {}
    for nodes in node_counts:
        for chunks in chunk_counts:
            results[(nodes, chunks)] = plan_generation_time(nodes, chunks, seed=seed)
    return results


def rows(results: dict[tuple[int, int], float]) -> list[list]:
    """Table rows: one per node count, seconds per chunk count."""
    node_counts = sorted({n for n, _ in results})
    chunk_counts = sorted({c for _, c in results})
    out = []
    for nodes in node_counts:
        out.append(
            [f"n={nodes}"]
            + [results.get((nodes, chunks), float("nan")) for chunks in chunk_counts]
        )
    return out


HEADERS = ["nodes", *(f"{c} chunks" for c in CHUNK_COUNTS)]
TABLES = [("Exp#5 / Fig 16: plan-generation time (s)", HEADERS, rows)]
