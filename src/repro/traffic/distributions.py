"""Samplers for key popularity and value-size distributions.

These back the four synthetic traces (Section V-A / Exp#1): Zipfian key
skew for YCSB, log-uniform sizes for the IBM Object Store trace,
lognormal sizes for Twitter Memcached, and generalized-extreme-value /
Pareto for Facebook's ETC workload.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


class ZipfianSampler:
    """YCSB-style Zipfian item sampler over ``0 .. nitems - 1``.

    Uses the classic Gray et al. rejection-free method (the same one YCSB
    implements) with skew parameter ``theta`` (YCSB default 0.99).
    """

    def __init__(self, nitems: int, theta: float = 0.99, rng=None) -> None:
        if nitems < 1:
            raise SimulationError("ZipfianSampler needs at least one item")
        if not 0 < theta < 1:
            raise SimulationError("theta must lie in (0, 1)")
        self.nitems = nitems
        self.theta = theta
        self.rng = rng if rng is not None else np.random.default_rng()
        self._zetan = self._zeta(nitems, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / nitems) ** (1 - theta)) / (1 - self._zeta2 / self._zetan)
        self._second = 1.0 + 0.5**theta  # u * zetan below this draws rank 1

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return float(np.sum(1.0 / np.arange(1, n + 1) ** theta))

    def sample(self) -> int:
        """One item id in [0, nitems); rank 0 is the most popular."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._second:
            return 1
        return int(
            self.nitems * (self._eta * u - self._eta + 1) ** self._alpha
        ) % self.nitems


class UniformSampler:
    """Uniform item sampler (used for comparison workloads)."""

    def __init__(self, nitems: int, rng=None) -> None:
        self.nitems = nitems
        self.rng = rng if rng is not None else np.random.default_rng()

    def sample(self) -> int:
        """One item id drawn uniformly from [0, nitems)."""
        return int(self.rng.integers(0, self.nitems))


class FixedSize:
    """Constant value size (YCSB's 512 KB values)."""

    def __init__(self, size: float) -> None:
        if size <= 0:
            raise SimulationError("value size must be positive")
        self.size = float(size)

    def sample(self, rng) -> float:
        """The constant value size in bytes."""
        return self.size


class LogUniformSize:
    """Sizes log-uniform between ``lo`` and ``hi`` (IBM Object Store's
    16 B - 2.4 GB spread, capped for simulation scale)."""

    def __init__(self, lo: float, hi: float) -> None:
        if not 0 < lo < hi:
            raise SimulationError("need 0 < lo < hi")
        self.log_lo = np.log(lo)
        self.log_hi = np.log(hi)

    def sample(self, rng) -> float:
        """A value size in bytes, log-uniform over [lo, hi]."""
        return float(np.exp(rng.uniform(self.log_lo, self.log_hi)))


class LognormalSize:
    """Lognormal sizes with a given mean (Twitter Memcached ~20 KB values)."""

    def __init__(self, mean: float, sigma: float = 1.0) -> None:
        if mean <= 0:
            raise SimulationError("mean must be positive")
        self.sigma = sigma
        # Choose mu so that E[X] = mean for lognormal(mu, sigma).
        self.mu = np.log(mean) - sigma**2 / 2

    def sample(self, rng) -> float:
        """A value size in bytes (>= 1), lognormal with the given mean."""
        return float(max(1.0, rng.lognormal(self.mu, self.sigma)))


class ParetoSize:
    """Pareto-tailed sizes (Facebook ETC values). ``alpha`` > 1 keeps a
    finite mean of ``scale * alpha / (alpha - 1)``."""

    def __init__(self, scale: float, alpha: float = 1.5, cap: float | None = None) -> None:
        if scale <= 0 or alpha <= 1:
            raise SimulationError("need scale > 0 and alpha > 1")
        self.scale = scale
        self.alpha = alpha
        self.cap = cap

    def sample(self, rng) -> float:
        """A value size in bytes, Pareto-tailed from ``scale`` upward."""
        value = self.scale * (1.0 + rng.pareto(self.alpha))
        if self.cap is not None:
            value = min(value, self.cap)
        return float(value)


class GEVSize:
    """Generalized-extreme-value sizes (Facebook ETC key sizes).

    Sampled by inverse transform; ``xi`` is the shape parameter.
    """

    def __init__(self, mu: float, sigma: float, xi: float = 0.1, floor: float = 1.0) -> None:
        if sigma <= 0:
            raise SimulationError("sigma must be positive")
        self.mu = mu
        self.sigma = sigma
        self.xi = xi
        self.floor = floor

    def sample(self, rng) -> float:
        """A GEV-distributed size in bytes, floored at ``floor``."""
        u = rng.random()
        # Guard against log(0).
        u = min(max(u, 1e-12), 1 - 1e-12)
        if abs(self.xi) < 1e-9:
            value = self.mu - self.sigma * np.log(-np.log(u))
        else:
            value = self.mu + self.sigma * ((-np.log(u)) ** (-self.xi) - 1) / self.xi
        return float(max(self.floor, value))
