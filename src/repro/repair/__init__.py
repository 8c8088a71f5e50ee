"""Repair plans, execution, and the baseline repair algorithms."""

from repro.repair.base import (
    ConventionalRepair,
    ECPipe,
    PPR,
    RepairAlgorithm,
    binomial_parents,
    chain_parents,
    select_equation,
    star_parents,
)
from repro.repair.dataplane import DataPlane
from repro.repair.degraded import (
    DegradedRead,
    degraded_read_plan,
    run_degraded_read,
)
from repro.repair.executor import execute_butterfly_repair, execute_plan
from repro.repair.instance import PlanInstance
from repro.repair.plan import PlanSource, RepairPlan
from repro.repair.repairboost import RepairBoost
from repro.repair.runner import RepairRunner

__all__ = [
    "ConventionalRepair",
    "DataPlane",
    "DegradedRead",
    "ECPipe",
    "PPR",
    "degraded_read_plan",
    "run_degraded_read",
    "PlanInstance",
    "PlanSource",
    "RepairAlgorithm",
    "RepairBoost",
    "RepairPlan",
    "RepairRunner",
    "binomial_parents",
    "chain_parents",
    "execute_butterfly_repair",
    "execute_plan",
    "select_equation",
    "star_parents",
]
