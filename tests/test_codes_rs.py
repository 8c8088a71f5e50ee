"""Unit and property tests for Reed-Solomon codes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import RSCode, make_code
from repro.errors import CodingError


def random_data(rng, k, size=64):
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


class TestEncode:
    def test_stripe_length(self):
        code = RSCode(4, 2)
        stripe = code.encode(random_data(np.random.default_rng(0), 4))
        assert len(stripe) == 6

    def test_systematic(self):
        rng = np.random.default_rng(1)
        data = random_data(rng, 4)
        stripe = RSCode(4, 2).encode(data)
        for original, encoded in zip(data, stripe[:4]):
            assert np.array_equal(original, encoded)

    def test_wrong_count_raises(self):
        with pytest.raises(CodingError):
            RSCode(4, 2).encode(random_data(np.random.default_rng(0), 3))

    def test_unequal_lengths_raise(self):
        chunks = [np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8)]
        with pytest.raises(CodingError):
            RSCode(2, 2).encode(chunks)

    def test_bytes_input_accepted(self):
        stripe = RSCode(2, 1).encode([b"\x01\x02", b"\x03\x04"])
        assert len(stripe) == 3

    def test_validate_stripe(self):
        rng = np.random.default_rng(2)
        code = RSCode(3, 2)
        stripe = code.encode(random_data(rng, 3))
        assert code.validate_stripe(stripe)
        stripe[4] = stripe[4] ^ 1
        assert not code.validate_stripe(stripe)


class TestDecode:
    @pytest.mark.parametrize("k,m", [(2, 2), (4, 2), (6, 3), (10, 4)])
    def test_decode_from_any_k_subset_small(self, k, m):
        rng = np.random.default_rng(k * 31 + m)
        code = RSCode(k, m)
        data = random_data(rng, k, size=32)
        stripe = code.encode(data)
        n = k + m
        subsets = list(itertools.combinations(range(n), k))
        if len(subsets) > 40:
            subsets = [subsets[i] for i in rng.choice(len(subsets), 40, replace=False)]
        for subset in subsets:
            decoded = code.decode({i: stripe[i] for i in subset})
            for i in range(n):
                assert np.array_equal(decoded[i], stripe[i])

    def test_too_few_chunks_raises(self):
        code = RSCode(4, 2)
        stripe = code.encode(random_data(np.random.default_rng(3), 4))
        with pytest.raises(CodingError):
            code.decode({0: stripe[0], 1: stripe[1], 2: stripe[2]})

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_decode_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        code = RSCode(k, m)
        data = random_data(rng, k, size=16)
        stripe = code.encode(data)
        keep = rng.choice(k + m, size=k, replace=False)
        decoded = code.decode({int(i): stripe[int(i)] for i in keep})
        for i in range(k):
            assert np.array_equal(decoded[i], data[i])


class TestRepairEquation:
    def test_repair_uses_k_sources(self):
        code = RSCode(10, 4)
        eq = code.repair_equation(0)
        assert len(eq.coefficients) == 10
        assert eq.read_fraction == 1.0

    def test_repair_equation_reconstructs(self):
        rng = np.random.default_rng(5)
        code = RSCode(6, 3)
        stripe = code.encode(random_data(rng, 6))
        for failed in range(9):
            eq = code.repair_equation(failed)
            acc = np.zeros_like(stripe[0])
            for src, coeff in eq.coefficients.items():
                from repro.gf import vec_addmul

                vec_addmul(acc, stripe[src], coeff)
            assert np.array_equal(acc, stripe[failed])

    def test_repair_with_restricted_available(self):
        rng = np.random.default_rng(6)
        code = RSCode(4, 2)
        stripe = code.encode(random_data(rng, 4))
        available = {1, 2, 3, 4}  # chunk 5 also lost
        eq = code.repair_equation(0, available=available)
        assert set(eq.coefficients) <= available
        acc = np.zeros_like(stripe[0])
        from repro.gf import vec_addmul

        for src, coeff in eq.coefficients.items():
            vec_addmul(acc, stripe[src], coeff)
        assert np.array_equal(acc, stripe[0])

    def test_unrepairable_raises(self):
        code = RSCode(4, 2)
        with pytest.raises(CodingError):
            code.repair_equation(0, available={1, 2, 3})

    def test_out_of_range_raises(self):
        with pytest.raises(CodingError):
            RSCode(4, 2).repair_equation(6)

    def test_traffic_chunks(self):
        eq = RSCode(10, 4).repair_equation(3)
        assert eq.traffic_chunks == 10


class TestConstruction:
    def test_invalid_params_raise(self):
        with pytest.raises(CodingError):
            RSCode(0, 2)

    def test_make_code(self):
        code = make_code("RS(10, 4)")
        assert isinstance(code, RSCode)
        assert (code.k, code.m) == (10, 4)
        assert code.name == "RS(10,4)"

    def test_make_code_rejects_garbage(self):
        with pytest.raises(CodingError):
            make_code("XOR(3)")
