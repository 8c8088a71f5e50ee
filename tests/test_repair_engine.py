"""Structural ratchet: the chunk lifecycle lives once, on the engine.

``RepairRunner`` and ``ChameleonRepair`` are scheduling policies over
:class:`~repro.repair.engine.RepairEngine`. If recovery code is ever
copied back into both, the copies drift (PRs 3/5/7/10 each paid for
that twice) — so the only method names both may define are the engine's
declared policy hooks.
"""

import types

from repro.core.chameleon import ChameleonRepair
from repro.repair.engine import RepairEngine
from repro.repair.runner import RepairRunner

LIFECYCLE = (
    "repair", "add_chunks", "set_concurrency", "crash", "helper_suspected",
    "_start", "_release", "_slowest_helper", "_maybe_hedge",
    "_check_hedge_timeout", "_hedge_done", "_hedge_failed", "_cancel_hedge",
    "_check_timeout", "_instance_failed", "_retry", "_mark_lost",
    "_chunk_done", "_maybe_finish", "_finish",
)


def own_methods(cls) -> set[str]:
    return {
        name for name, value in vars(cls).items()
        if isinstance(value, (types.FunctionType, property))
    }


def test_policies_share_only_the_declared_hooks():
    assert set(RepairEngine.POLICY_HOOKS) <= own_methods(RepairEngine)
    shared = own_methods(RepairRunner) & own_methods(ChameleonRepair)
    assert shared - {"__init__"} <= set(RepairEngine.POLICY_HOOKS)


def test_lifecycle_is_defined_on_the_engine_only():
    for policy in (RepairRunner, ChameleonRepair):
        assert not own_methods(policy) & (set(LIFECYCLE) | {"done", "crashed"})
    assert set(LIFECYCLE) <= own_methods(RepairEngine)
