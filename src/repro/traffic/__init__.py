"""Foreground workload generation and replay."""

from repro.traffic.client import TraceClient, launch_clients
from repro.traffic.distributions import (
    FixedSize,
    GEVSize,
    LognormalSize,
    LogUniformSize,
    ParetoSize,
    UniformSampler,
    ZipfianSampler,
)
from repro.traffic.router import KeyRouter
from repro.traffic.schedule import TransitioningTrace
from repro.traffic.traces import (
    TRACE_FACTORIES,
    Request,
    TraceGenerator,
    facebook_etc,
    ibm_object_store,
    make_trace,
    memcached_twitter,
    uniform_trace,
    ycsb_a,
)

__all__ = [
    "FixedSize",
    "GEVSize",
    "KeyRouter",
    "LognormalSize",
    "LogUniformSize",
    "ParetoSize",
    "Request",
    "TRACE_FACTORIES",
    "TraceClient",
    "TraceGenerator",
    "TransitioningTrace",
    "UniformSampler",
    "ZipfianSampler",
    "facebook_etc",
    "ibm_object_store",
    "launch_clients",
    "make_trace",
    "memcached_twitter",
    "uniform_trace",
    "ycsb_a",
]
