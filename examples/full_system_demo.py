#!/usr/bin/env python3
"""Full-system demo: racked cluster, real payloads, live foreground.

Exercises the extension surfaces on top of the paper's core:

1. a hierarchical cluster (4 racks, 3x oversubscribed core);
2. a chunk store holding real encoded payloads (the Redis role);
3. ChameleonEC repairing a failed node while YCSB-A clients run —
   with every repaired chunk verified byte-for-byte at the end.
"""

from repro import MB, ExperimentConfig, Testbed
from repro.cluster import drop_node_chunks, encode_and_load
from repro.repair import DataPlane
from repro.traffic import TraceClient, ycsb_a


def main() -> None:
    # --- 1. a hierarchical testbed -------------------------------------------
    testbed = Testbed.build(ExperimentConfig.scaled(
        code="rs-10-4", num_nodes=20, num_clients=2, num_chunks=20, seed=11,
        chunk_mb=16.0, slice_mb=1.0, t_phase=5.0,
        racks=4, oversubscription=3.0,
    ))
    cluster, store = testbed.cluster, testbed.store
    print(f"cluster: 20 nodes in 4 racks (3x oversubscribed), {len(store)} "
          f"stripes of {testbed.code.name}")

    # --- 2. real payloads ------------------------------------------------------
    chunk_store = encode_and_load(store, payload_size=512, seed=12)
    print(f"chunk store: {len(chunk_store)} payloads encoded and loaded")

    # --- 3. fail, repair, verify under foreground ----------------------------
    clients = []
    for node in cluster.clients:
        client = TraceClient(
            cluster, node, ycsb_a(seed=13), testbed.router,
            num_requests=None, slice_size=1 * MB,
        )
        clients.append(client)
        client.start()
    cluster.sim.run(until=5.0)  # warm the bandwidth monitor

    report = testbed.injector.fail_nodes([0])
    lost = drop_node_chunks(chunk_store, store, 0)
    print(f"node 0 failed: {len(report.failed_chunks)} chunks, "
          f"{len(lost)} payloads dropped")
    chameleon = testbed.make_repairer("ChameleonEC")
    plane = DataPlane(chunk_store, store)
    plane.attach(chameleon)
    chameleon.repair(report.failed_chunks)
    testbed.run_until(lambda: chameleon.done, step=2.0)
    for client in clients:
        client.stop()

    plane.verify()
    print(f"repair: {chameleon.meter.throughput / 1e6:.1f} MB/s over "
          f"{chameleon.phase_index} phase(s); "
          f"{len(plane.repaired)} chunks restored, all byte-identical")
    p99 = clients[0].latency.p99 * 1000
    print(f"foreground: P99 {p99:.2f} ms across "
          f"{sum(c.issued for c in clients)} YCSB-A requests")

if __name__ == "__main__":
    main()
