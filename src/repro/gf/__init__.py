"""Galois-field GF(2^8) arithmetic used by all erasure codes."""

from repro.gf.field import (
    as_field_array,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
    gf_sub,
    vec_addmul,
    vec_scale,
    vec_xor,
)
from repro.gf.matrix import (
    cauchy,
    identity,
    inverse,
    is_mds,
    matmul,
    matvec_data,
    rank,
    rs_generator_cauchy,
    solve,
)
from repro.gf.tables import EXP_TABLE, INV_TABLE, LOG_TABLE, MUL_TABLE, PRIMITIVE_POLY

__all__ = [
    "EXP_TABLE",
    "INV_TABLE",
    "LOG_TABLE",
    "MUL_TABLE",
    "PRIMITIVE_POLY",
    "as_field_array",
    "cauchy",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "gf_pow",
    "gf_sub",
    "identity",
    "inverse",
    "is_mds",
    "matmul",
    "matvec_data",
    "rank",
    "rs_generator_cauchy",
    "solve",
    "vec_addmul",
    "vec_scale",
    "vec_xor",
]
