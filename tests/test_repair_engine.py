"""Structural ratchet: the chunk lifecycle lives once, on the engine.

``RepairRunner`` and ``ChameleonRepair`` are scheduling policies over
:class:`~repro.repair.engine.RepairEngine`. If recovery code is ever
copied back into both, the copies drift (PRs 3/5/7/10 each paid for
that twice) — so the only method names both may define are the engine's
declared policy hooks.
"""

import ast
import pathlib
import types

import pytest

import repro
from repro.api import Testbed
from repro.core.chameleon import ChameleonRepair
from repro.experiments.config import ExperimentConfig
from repro.repair.engine import RepairEngine
from repro.repair.runner import RepairRunner

LIFECYCLE = (
    "repair", "add_chunks", "set_concurrency", "crash", "helper_suspected",
    "_start", "_release", "_check_timeout", "_instance_failed", "_retry",
    "_mark_lost",
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
        assert not own_methods(policy) & (
            set(LIFECYCLE) | {"done", "crashed", "running", "shard"}
        )
    assert set(LIFECYCLE) <= own_methods(RepairEngine)


#: Files that meet coordinators from the outside, and the only names
#: they may apply ``getattr`` to (the builder's feature-table look-ups).
IDENTITY_CONSUMERS = {
    "api.py": {"Testbed", "testbed"},
    "integrity/scrubber.py": set(),
    "control/admission.py": set(),
}


@pytest.mark.parametrize("relpath", sorted(IDENTITY_CONSUMERS))
def test_nothing_keys_on_or_probes_a_repairer(relpath):
    """What is known *about* an engine lives *on* it: no ``id()``-keyed
    side table, no ``getattr(repairer, "_started", ...)`` duck-typing."""
    path = pathlib.Path(repro.__file__).parent / relpath
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert not [c.lineno for c in calls if c.func.id == "id"]
    probed = {ast.unparse(c.args[0]) for c in calls if c.func.id == "getattr"}
    assert probed <= IDENTITY_CONSUMERS[relpath]


#: The only files that hand chunks to a coordinator: the testbed routes
#: newly found work (node crashes, scrub detections) to its owners, and
#: the data plane re-queues a rejected write-back into its own driver.
ADOPTION_SITES = {"api.py", "repair/dataplane.py"}


def test_only_the_routing_sites_call_add_chunks():
    """One routing copy: a second owner-picking loop cannot reappear."""
    root = pathlib.Path(repro.__file__).parent
    callers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_chunks"
    }
    assert callers == ADOPTION_SITES


@pytest.mark.parametrize(
    ("journalled", "shard", "expected"),
    [(False, None, None), (True, None, 0), (True, 1, 1)],
    ids=["bare", "journalled", "sharded"],
)
@pytest.mark.parametrize("name", ["ChameleonEC", "CR", "PPR", "ECPipe"])
def test_running_and_shard_follow_the_lifecycle(name, journalled, shard, expected):
    """A journalled unsharded coordinator is shard 0 of a one-shard plane."""
    testbed = Testbed.build(ExperimentConfig.scaled(0.05, seed=0, num_chunks=3))
    if journalled:
        testbed.enable_journal()
    report = testbed.fail_nodes(1)
    repairer = testbed.make_repairer(name, shard=shard)
    assert (repairer.running, repairer.shard) == (False, expected)
    assert repairer.recovery is None and repairer.home is None
    repairer.repair(report.failed_chunks)
    assert (repairer.running, repairer.shard) == (True, expected)
    testbed.run_until(lambda: repairer.done)
    assert repairer.running  # a finished batch re-opens on add_chunks()
    repairer.crash()
    assert (repairer.running, repairer.crashed) == (False, True)
    assert repairer.shard == expected
