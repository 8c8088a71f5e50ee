"""Reed-Solomon codes RS(k, m) over GF(2^8)."""

from __future__ import annotations

from repro.codes.base import LinearCode
from repro.gf.matrix import rs_generator_cauchy


class RSCode(LinearCode):
    """Systematic Reed-Solomon code with ``k`` data and ``m`` parity chunks.

    The generator is Cauchy, the construction the ChameleonEC prototype
    uses through Jerasure.
    """

    def __init__(self, k: int, m: int) -> None:
        super().__init__(k, m, rs_generator_cauchy(k, m))
        self.m = m

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``RS(10,4)``."""
        return f"RS({self.k},{self.m})"
