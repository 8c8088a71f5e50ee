"""Synthetic generators for the paper's four foreground traces.

The real traces (YCSB-A on HBase, IBM Object Store trace 000, Twitter
Memcached cluster 37, Facebook ETC) are not redistributable; each
generator below reproduces the characteristics the paper relies on
(op mix, value-size distribution, key skew — Section V-B, Exp#1).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cluster.node import KB, MB
from repro.errors import SimulationError
from repro.traffic.distributions import (
    FixedSize,
    GEVSize,
    LognormalSize,
    LogUniformSize,
    ParetoSize,
    UniformSampler,
    ZipfianSampler,
)


class Request(NamedTuple):
    """One foreground operation replayed by a client."""

    op: str  # "read" or "update"
    key: int
    size: float  # value size in bytes


class TraceGenerator:
    """Generates an endless stream of requests with a given character."""

    def __init__(
        self,
        name: str,
        *,
        read_ratio: float,
        key_sampler,
        size_sampler,
        rng=None,
    ) -> None:
        if not 0 <= read_ratio <= 1:
            raise SimulationError("read_ratio must lie in [0, 1]")
        self.name = name
        self.read_ratio = read_ratio
        self.key_sampler = key_sampler
        self.size_sampler = size_sampler
        self.rng = rng if rng is not None else np.random.default_rng()

    def next_request(self) -> Request:
        """Draw one request (op + key + value size)."""
        rng = self.rng
        op = "read" if rng.random() < self.read_ratio else "update"
        return Request(op, self.key_sampler.sample(), self.size_sampler.sample(rng))

    def requests(self, count: int):
        """Yield exactly ``count`` requests."""
        for _ in range(count):
            yield self.next_request()


def ycsb_a(seed: int = 0) -> TraceGenerator:
    """YCSB-A: 50% reads / 50% updates, Zipfian(0.99) over 10 000 keys,
    512 KB values."""
    rng = np.random.default_rng(seed)
    return TraceGenerator(
        "YCSB-A",
        read_ratio=0.5,
        key_sampler=ZipfianSampler(10_000, theta=0.99, rng=rng),
        size_sampler=FixedSize(512 * KB),
        rng=rng,
    )


def ibm_object_store(seed: int = 0) -> TraceGenerator:
    """IBM Object Store trace 000: wildly varied value sizes (16 B up to
    2.4 GB in the original; capped at 256 MB for simulation scale),
    read-heavy object storage over 10 000 keys."""
    rng = np.random.default_rng(seed)
    return TraceGenerator(
        "IBM-OS",
        read_ratio=0.78,
        key_sampler=ZipfianSampler(10_000, theta=0.9, rng=rng),
        size_sampler=LogUniformSize(16.0, 256 * MB),
        rng=rng,
    )


def memcached_twitter(seed: int = 0) -> TraceGenerator:
    """Twitter Memcached cluster 37: 63% GET / 37% SET over 50 000 keys,
    ~20 KB mean values."""
    rng = np.random.default_rng(seed)
    return TraceGenerator(
        "Memcached",
        read_ratio=0.63,
        key_sampler=ZipfianSampler(50_000, theta=0.99, rng=rng),
        size_sampler=LognormalSize(mean=20_134.0, sigma=1.2),
        rng=rng,
    )


def facebook_etc(seed: int = 0) -> TraceGenerator:
    """Facebook ETC: GET:UPDATE of 30:1, GEV-distributed keys (50 000 of
    them) and Pareto-distributed values (Atikoglu et al., SIGMETRICS'12)."""
    rng = np.random.default_rng(seed)
    gev_keys = GEVSize(mu=30.0, sigma=8.0, xi=0.25, floor=1.0)

    class _GEVKeySampler:
        """Key ids drawn by folding a GEV sample into the key space,
        producing the heavy skew the ETC paper reports."""

        def __init__(self, nitems: int, inner_rng) -> None:
            self.nitems = nitems
            self.rng = inner_rng

        def sample(self) -> int:
            """One folded-GEV key id in [0, nitems)."""
            return int(gev_keys.sample(self.rng) * 97) % self.nitems

    rng_keys = np.random.default_rng(seed + 1)
    return TraceGenerator(
        "Facebook-ETC",
        read_ratio=30.0 / 31.0,
        key_sampler=_GEVKeySampler(50_000, rng_keys),
        size_sampler=ParetoSize(scale=300.0, alpha=1.5, cap=4 * MB),
        rng=rng,
    )


def uniform_trace(seed: int = 0) -> TraceGenerator:
    """A plain uniform workload over 10 000 keys: 50 % reads, 512 KB
    values (useful in tests)."""
    rng = np.random.default_rng(seed)
    return TraceGenerator(
        "Uniform",
        read_ratio=0.5,
        key_sampler=UniformSampler(10_000, rng=rng),
        size_sampler=FixedSize(512 * KB),
        rng=rng,
    )


TRACE_FACTORIES = {
    "YCSB-A": ycsb_a,
    "IBM-OS": ibm_object_store,
    "Memcached": memcached_twitter,
    "Facebook-ETC": facebook_etc,
}


def make_trace(name: str, seed: int = 0) -> TraceGenerator:
    """Build one of the four paper traces by name, case-insensitively
    (``"ycsb-a"`` builds ``"YCSB-A"``)."""
    for key, factory in TRACE_FACTORIES.items():
        if key.lower() == name.lower():
            return factory(seed=seed)
    raise SimulationError(
        f"unknown trace {name!r}; valid traces: {sorted(TRACE_FACTORIES)}"
    )
