"""Discrete-event fluid-flow network/storage simulator."""

from repro.sim.allocator import RateAllocator, allocate_rates
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.flows import Flow, FlowScheduler
from repro.sim.resources import Resource
from repro.sim.transfers import Transfer, TransferManager

__all__ = [
    "Event",
    "EventQueue",
    "Flow",
    "FlowScheduler",
    "RateAllocator",
    "Resource",
    "Simulator",
    "Transfer",
    "TransferManager",
    "allocate_rates",
]
