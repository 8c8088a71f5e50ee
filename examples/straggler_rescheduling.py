#!/usr/bin/env python3
"""Straggler handling (Section III-A + III-C / Exp#11).

Saturates one node's uplink with a Redis-style hog (24 reader threads
pulling 1 MB objects), then repairs a failed node with:

* CR / PPR / ECPipe — random source selection, no awareness of the hog;
* ChameleonEC      — idle-bandwidth dispatch steers tasks around the
                     hogged node, and straggler-aware re-scheduling
                     (re-ordering + re-tuning) handles tasks that still
                     land on it.

Two timings are shown: the hog active *before* dispatch (ChameleonEC's
monitor sees it and avoids the node) and the hog arriving *mid-repair*
(only re-scheduling can react).
"""

from repro import ExperimentConfig, Testbed
from repro.experiments.exp11_breakdown import StragglerLoad

ALGORITHMS = ("CR", "PPR", "ECPipe", "ETRP", "ChameleonEC")


def run_one(algorithm: str, hog_delay: float, scale: float = 0.08) -> str:
    testbed = Testbed.build(ExperimentConfig.scaled(scale))
    testbed.start_foreground()
    hog = StragglerLoad(testbed.cluster, node_id=1)
    testbed.cluster.sim.run(until=3.0)
    if hog_delay <= 0:
        hog.start()  # hog active before the repair is even planned
    testbed.cluster.sim.run(until=6.0)
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer(algorithm)
    repairer.repair(report.failed_chunks)
    if hog_delay > 0:
        testbed.cluster.sim.schedule(hog_delay, hog.start)
    testbed.run_until(lambda: repairer.done, step=0.5)
    hog.stop()
    testbed.stop_foreground()
    line = f"  {algorithm:12s} {repairer.meter.throughput / 1e6:7.1f} MB/s"
    if hasattr(repairer, "reorders"):
        line += (
            f"   (re-orders={repairer.reorders}, re-tunes={repairer.retunes},"
            f" re-plans={repairer.replans})"
        )
    return line


def main() -> None:
    print("hog active BEFORE dispatch (idle-bandwidth dispatch avoids it):")
    for algorithm in ALGORITHMS:
        print(run_one(algorithm, hog_delay=0.0))
    print("\nhog arrives MID-REPAIR (re-scheduling reacts):")
    for algorithm in ALGORITHMS:
        print(run_one(algorithm, hog_delay=0.3))


if __name__ == "__main__":
    main()
