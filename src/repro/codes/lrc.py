"""Azure-style Locally Repairable Codes LRC(k, l, m).

Layout of the ``n = k + l + m`` stripe:

* indices ``0 .. k-1``        — data chunks, split into ``l`` equal groups;
* indices ``k .. k+l-1``      — one XOR local parity per group;
* indices ``k+l .. k+l+m-1``  — RS (Cauchy) global parities.

Repairing a data chunk reads only the ``k/l`` other chunks of its local
group; repairing a global parity reads ``k`` chunks, exactly the paper's
Section II-C description.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import LinearCode
from repro.errors import CodingError
from repro.gf.matrix import cauchy, identity


class LRCCode(LinearCode):
    """Locally Repairable Code with ``l`` local and ``m`` global parities."""

    def __init__(self, k: int, l: int, m: int) -> None:
        if l < 1 or k % l != 0:
            raise CodingError(f"k={k} must be divisible by l={l}")
        group_size = k // l
        local_rows = np.zeros((l, k), dtype=np.uint8)
        for g in range(l):
            local_rows[g, g * group_size : (g + 1) * group_size] = 1
        generator = np.vstack([identity(k), local_rows, cauchy(k, m)])
        super().__init__(k, l + m, generator)
        self.l = l
        self.m = m
        self.group_size = group_size

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``LRC(10,2,2)``."""
        return f"LRC({self.k},{self.l},{self.m})"

    def group_of(self, index: int) -> int | None:
        """Local group id of a data or local-parity chunk, else None."""
        if 0 <= index < self.k:
            return index // self.group_size
        if self.k <= index < self.k + self.l:
            return index - self.k
        return None

    def local_group_members(self, group: int) -> list[int]:
        """All chunk indices (data + local parity) of ``group``."""
        if not 0 <= group < self.l:
            raise CodingError(f"group {group} out of range for {self.name}")
        data = list(range(group * self.group_size, (group + 1) * self.group_size))
        return data + [self.k + group]

    def fault_tolerance(self) -> int:
        """LRCs are not MDS: only ``m + 1`` arbitrary failures are guaranteed."""
        return self.m + 1
