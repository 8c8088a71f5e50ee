"""Name-based construction of erasure codes, e.g. ``make_code("RS(10,4)")``."""

from __future__ import annotations

import re

from repro.codes.base import ErasureCode
from repro.codes.butterfly import ButterflyCode
from repro.codes.lrc import LRCCode
from repro.codes.rs import RSCode
from repro.errors import CodingError

_VALID_FORMS = (
    "'RS(k,m)' / 'rs-k-m', 'LRC(k,l,m)' / 'lrc-k-l-m', "
    "'Butterfly(n,k)' / 'butterfly-n-k'"
)
#: Registry form ``rs(6,3)`` or slug ``rs-6-3``, after lower-casing and
#: dropping spaces: the family, then its integer parameters.
_SPEC = re.compile(r"^([a-z]+)(?:\((\d+(?:,\d+)*)\)|((?:-\d+)+))$")


def _butterfly(n: int, k: int) -> ButterflyCode:
    # The paper names it Butterfly(n, k) = Butterfly(4, 2).
    if (n, k) != (4, 2):
        raise CodingError("only Butterfly(4,2) is supported")
    return ButterflyCode()


#: Family -> (constructor, number of parameters).
_FAMILIES = {"rs": (RSCode, 2), "lrc": (LRCCode, 3), "butterfly": (_butterfly, 2)}


def make_code(spec: str) -> ErasureCode:
    """Build a code from its name, e.g. ``"RS(10,4)"`` or ``"rs-10-4"``.

    Case and spaces are ignored. A spec that names no known family, or
    gives it the wrong number of parameters, raises :class:`CodingError`
    listing the valid forms; parameters the family itself rejects
    (``"RS(0,2)"``) raise its own :class:`CodingError`.
    """
    match = _SPEC.match(spec.replace(" ", "").lower())
    if match:
        family, listed, slug = match.groups()
        params = [int(p) for p in (listed.split(",") if listed else slug[1:].split("-"))]
        factory, arity = _FAMILIES.get(family, (None, None))
        if len(params) == arity:
            return factory(*params)
    raise CodingError(f"cannot parse code spec {spec!r}; valid forms: {_VALID_FORMS}")
