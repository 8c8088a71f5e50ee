#!/usr/bin/env python3
"""Fault injection: a repair that survives crashes and stragglers.

Builds a testbed, starts a full-node repair, then a seeded
:class:`repro.FaultTimeline` injects runtime faults *mid-repair*:

* a helper node crashes (its in-flight repair transfers fail, its
  chunks join the repair batch, affected chunks are retried);
* another node straggles for a few seconds (bandwidth at 10%);
* one in-flight repair flow is interrupted outright.

The run completes with zero lost chunks; every retry and re-plan is
visible through the hook events printed below.
"""

from repro import ExperimentConfig, FaultTimeline, Testbed


def main() -> None:
    testbed = Testbed.build(ExperimentConfig.scaled(
        code="rs-6-3", num_nodes=16, trace="ycsb-a", num_chunks=12, seed=5,
    ))
    testbed.start_foreground()
    testbed.cluster.sim.run(until=3.0)

    report = testbed.fail_nodes(1)
    print(f"node 0 failed: {len(report.failed_chunks)} chunks to repair")
    repairer = testbed.make_repairer("ChameleonEC", chunk_timeout=60.0)
    repairer.on("chunk_failed", lambda r, chunk, reason:
                print(f"  [fault] chunk {chunk} failed: {reason}"))
    repairer.on("retry", lambda r, chunk, attempt:
                print(f"  [recover] retrying {chunk} (attempt {attempt})"))
    repairer.on("chunks_added", lambda r, chunks:
                print(f"  [recover] adopted {len(chunks)} chunks from the crash"))

    timeline = (
        FaultTimeline(seed=7)
        .crash(2.0, node_id=5)          # a helper dies mid-repair
        .degrade(4.0, node_id=9, factor=0.1, duration=3.0)  # a straggler
        .interrupt_flow(6.0)
    )
    timeline.on("node_crashed", lambda t, node_id, report, failed_transfers:
                print(f"  [fault] node {node_id} crashed "
                      f"({len(failed_transfers)} transfers killed)"))
    testbed.install_faults(timeline)

    repairer.repair(report.failed_chunks)
    testbed.run_until(lambda: repairer.done)
    testbed.stop_foreground()

    print(f"repaired {len(repairer.completed)} chunks "
          f"({repairer.retries} retries, {len(repairer.lost)} lost) "
          f"in {repairer.meter.elapsed:.1f} s")
    assert not repairer.lost, "tolerance was never exceeded"


if __name__ == "__main__":
    main()
