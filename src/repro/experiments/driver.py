"""Low-level simulation driving: advance virtual time until a condition.

Lives below both :mod:`repro.api` and
:mod:`repro.experiments.harness` (which re-exports these names) so the
facade can drive a cluster without importing the harness.
"""

from __future__ import annotations

from repro.errors import ConvergenceError

#: Hard stop for any simulated run (seconds of virtual time).
MAX_SIM_TIME = 200_000.0


def run_sim_until(cluster, predicate, step: float = 5.0, limit: float = MAX_SIM_TIME):
    """Advance the simulator until ``predicate()`` holds or ``limit``.

    The predicate is re-checked at least every ``step`` seconds of
    virtual time, but the clock jumps straight to the next queued event
    when that lies further away — a sparse or drained event queue no
    longer costs thousands of idle ``run()`` probes. With an empty
    queue, nothing can change except the clock itself, so it advances
    directly to ``limit`` (satisfying any time-based predicate on the
    way out).

    Raises :class:`repro.errors.ConvergenceError` (a ``RuntimeError``
    subclass) when ``limit`` is reached with the predicate still false —
    never returns silently with the condition unmet.
    """
    while not predicate() and cluster.sim.now < limit:
        next_time = cluster.sim.peek_next_time()
        if next_time is None:
            cluster.sim.run(until=limit)
            break
        target = min(max(cluster.sim.now + step, next_time), limit)
        cluster.sim.run(until=target)
    if not predicate():
        raise ConvergenceError(
            f"simulation hit the {limit} s virtual-time limit at "
            f"t={cluster.sim.now} with the predicate still false; "
            "raise `limit` or check for stalled work "
            "(e.g. a crashed coordinator that was never recovered)"
        )
    return cluster.sim.now
