#!/usr/bin/env python3
"""Coordinator failover: crash the repair control plane, replay, resume.

Repairers, not just helpers, can die. With a journal enabled the
repairer write-ahead-logs every state transition (enqueue, plan chosen
with a fenced lease, reads issued, decode verified, write-back
committed), so a seeded :class:`repro.CoordinatorCrash` mid-repair is
recoverable: :meth:`Testbed.recover_repairer` replays the log,
reconciles it against the chunk store's actual bytes, and resumes a
fresh coordinator under a new epoch. Every chunk is repaired exactly
once — work committed before the crash is proven done by the log and
never re-executed — and the result is byte-identical to a crash-free
run.
"""

from repro import ExperimentConfig, Testbed


def main() -> None:
    testbed = Testbed.build(ExperimentConfig.scaled(
        code="rs-6-3", num_nodes=16, trace="ycsb-a", num_chunks=12, seed=11,
    ))
    testbed.enable_journal()    # the durable control plane
    testbed.enable_integrity()  # real payloads: recovery reconciles bytes
    testbed.start_foreground()
    testbed.cluster.sim.run(until=2.0)

    report = testbed.fail_nodes(1)
    print(f"node failed: {len(report.failed_chunks)} chunks to repair")
    repairer = testbed.make_repairer("ChameleonEC")
    repairer.repair(report.failed_chunks)

    # Tear the coordinator down mid-repair (a crash-free run takes
    # ~0.9 s here): all its repair transfers die and every pending
    # timer becomes a no-op.
    testbed.inject_coordinator_crash(0.6)
    testbed.run_until(lambda: repairer.crashed, step=0.05)
    print(f"coordinator crashed at t={testbed.cluster.sim.now:.2f} s "
          f"with {len(repairer.completed)} chunks committed, "
          f"journal holds {len(testbed.journal)} records")

    # Failover: replay the journal, reconcile against stored bytes,
    # requeue only what is not provably done, resume under a new epoch.
    replacement = testbed.recover_repairer()
    print(f"recovery plan: {replacement.recovery.summary()}")
    testbed.run_until(lambda: replacement.done)
    testbed.stop_foreground()

    done_before = set(repairer.completed)
    done_after = set(replacement.completed)
    print(f"repaired {len(done_before)} before + {len(done_after)} after "
          f"the crash, {len(replacement.lost)} lost")
    assert done_before | done_after == set(report.failed_chunks)
    assert not done_before & done_after, "exactly-once: no double repair"
    for chunk in report.failed_chunks:
        assert testbed.chunk_store.verify(chunk), chunk
    print("every chunk repaired exactly once, byte-exact")


if __name__ == "__main__":
    main()
