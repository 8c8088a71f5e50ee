#!/usr/bin/env python3
"""Quickstart: encode a stripe, lose a node, repair it with ChameleonEC.

Walks the stable ``repro`` facade in one sitting:

1. build an RS(10,4)-coded testbed of 20 nodes from one config,
2. replay YCSB-A foreground traffic from 4 clients,
3. fail a node and repair its chunks with ChameleonEC,
4. verify (over real bytes) that a ChameleonEC plan decodes correctly,
5. print repair throughput and foreground tail latency.
"""

import numpy as np

from repro import ExperimentConfig, Testbed, execute_plan
from repro.core import TaskDispatcher, build_plan


def main() -> None:
    # --- 1. the testbed: cluster + coded stripes + monitor ------------------
    testbed = Testbed.build(ExperimentConfig.scaled(
        code="rs-10-4", num_nodes=20, num_clients=4, trace="ycsb-a",
        num_chunks=20, chunk_mb=16.0, slice_mb=1.0, t_phase=5.0, seed=7,
    ))
    code = testbed.code
    print(f"cluster: 20 nodes, {len(testbed.store)} stripes of {code.name}")

    # --- 2. foreground traffic ---------------------------------------------
    testbed.start_foreground()
    testbed.cluster.sim.run(until=5.0)  # warm the bandwidth monitor

    # --- 3. fail a node and repair it ---------------------------------------
    report = testbed.fail_nodes(1)
    print(f"node 0 failed: {len(report.failed_chunks)} chunks to repair")
    chameleon = testbed.make_repairer("ChameleonEC")
    chameleon.repair(report.failed_chunks)
    testbed.run_until(lambda: chameleon.done, step=2.0)
    testbed.stop_foreground()

    # --- 4. prove a dispatched plan decodes real bytes ----------------------
    rng = np.random.default_rng(42)
    data = [rng.integers(0, 256, 4096, dtype=np.uint8) for _ in range(code.k)]
    stripe_bytes = code.encode(data)
    dispatcher = TaskDispatcher(
        testbed.injector, testbed.monitor, chunk_size=testbed.config.chunk_size
    )
    dispatcher.begin_phase()
    chunk = report.failed_chunks[0]
    # The chunk was already repaired; rebuild a plan for demonstration by
    # pretending it failed again on its new home.
    dispatch = dispatcher.dispatch_chunk(chunk, code)
    plan = build_plan(dispatch, code, testbed.injector)
    repaired = execute_plan(
        plan, {s.chunk_index: stripe_bytes[s.chunk_index] for s in plan.sources}
    )
    assert np.array_equal(repaired, stripe_bytes[chunk.index])
    print(f"plan for {chunk} decodes correctly "
          f"({len(plan.relays())} relays, {len(plan.edges())} transmissions)")

    # --- 5. results ----------------------------------------------------------
    latency = testbed.latency
    print(f"repair throughput : {chameleon.meter.throughput / 1e6:8.1f} MB/s")
    print(f"repair time       : {chameleon.meter.elapsed:8.2f} s "
          f"({chameleon.phase_index} phase(s))")
    print(f"foreground P99    : {latency.p99 * 1000:8.2f} ms "
          f"over {latency.count} requests")


if __name__ == "__main__":
    main()
