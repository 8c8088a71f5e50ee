"""ChameleonEC: tunable, low-interference erasure-coded repair."""

from repro.core.candidates import repair_candidates
from repro.core.chameleon import ChameleonRepair
from repro.core.chameleon_io import ChameleonRepairIO
from repro.core.dispatch import TaskDispatcher
from repro.core.planner import build_parent_map, build_plan
from repro.core.tasks import ChunkDispatch, PhaseLoad

__all__ = [
    "ChameleonRepair",
    "ChameleonRepairIO",
    "ChunkDispatch",
    "PhaseLoad",
    "TaskDispatcher",
    "build_parent_map",
    "build_plan",
    "repair_candidates",
]
