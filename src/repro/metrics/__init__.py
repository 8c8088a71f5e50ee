"""Measurement utilities: latency, throughput, interference."""

from repro.metrics.interference import improvement_ratio, interference_degree
from repro.metrics.latency import LatencyRecorder
from repro.metrics.throughput import RepairThroughputMeter

__all__ = [
    "LatencyRecorder",
    "RepairThroughputMeter",
    "improvement_ratio",
    "interference_degree",
]
