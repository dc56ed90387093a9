"""Spreading-code construction: orthogonal code matrices and m-sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.codes import (
    PRIMITIVE_TAPS,
    generate_msequence,
    generate_walsh,
    periodic_correlation,
)

# LFSR stepped by hand: degree 3, taps (3, 1), seed state 0b001.
# state  001 -> 011 -> 111 -> 110 -> 101 -> 010 -> 100 -> back to 001
# outbit   0      0      1      1      1      0      1
# chips   +1     +1     -1     -1     -1     +1     -1
DEG3_CHIPS = np.array([1, 1, -1, -1, -1, 1, -1], dtype=np.int8)


class TestWalsh:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 32, 64])
    def test_orthogonality_exact(self, order):
        w = generate_walsh(order)
        gram = w.astype(np.int64) @ w.astype(np.int64).T
        assert (gram == order * np.eye(order, dtype=np.int64)).all()

    def test_chips_are_unit(self):
        w = generate_walsh(16)
        assert w.shape == (16, 16) and w.dtype == np.int8
        assert set(np.unique(w)) == {-1, 1}

    def test_first_row_all_ones(self):
        assert (generate_walsh(8)[0] == 1).all()

    def test_order4_contents(self):
        rows = generate_walsh(4)
        expected = np.array([
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ])
        assert (rows == expected).all()

    def test_row_products_are_rows(self):
        # Row r * row s equals row (r xor s); the receiver's cross-slot
        # analysis leans on this closure property.
        w = generate_walsh(8)
        for r in range(8):
            for s in range(8):
                assert (w[r] * w[s] == w[r ^ s]).all()

    @pytest.mark.parametrize("bad", [0, 3, 6, 12, -4])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            generate_walsh(bad)

    def test_deterministic(self):
        a = generate_walsh(32)
        b = generate_walsh(32)
        assert (a == b).all()


class TestMSequence:
    def test_degree3_hand_oracle(self):
        pn = generate_msequence(3, (3, 1), seed=1)
        assert pn.dtype == np.int8
        assert (pn == DEG3_CHIPS).all()

    @pytest.mark.parametrize("degree", sorted(PRIMITIVE_TAPS))
    def test_period_balance_autocorrelation(self, degree):
        pn = generate_msequence(degree)
        n = 2 ** degree - 1
        assert pn.size == n
        assert np.count_nonzero(pn == -1) == 2 ** (degree - 1)
        assert np.count_nonzero(pn == 1) == 2 ** (degree - 1) - 1
        for shift in (1, 2, n // 2, n - 1):
            assert periodic_correlation(pn, pn, shift) == -1
        assert periodic_correlation(pn, pn, 0) == n

    def test_seed_only_rotates(self):
        base = generate_msequence(5)
        other = generate_msequence(5, seed=7)
        assert any((np.roll(base, s) == other).all()
                   for s in range(base.size))

    def test_non_primitive_taps_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
        with pytest.raises(ValueError, match="not primitive"):
            generate_msequence(4, (4, 2))

    def test_bad_taps_rejected(self):
        with pytest.raises(ValueError):
            generate_msequence(4, (3, 1))     # highest tap must equal degree
        with pytest.raises(ValueError):
            generate_msequence(4, (4, 0))
        with pytest.raises(ValueError):
            generate_msequence(1, (1,))

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            generate_msequence(4, seed=0)
        with pytest.raises(ValueError):
            generate_msequence(4, seed=16)


class TestPeriodicCorrelation:
    def test_walsh_rows_zero(self):
        w = generate_walsh(8)
        assert periodic_correlation(w[2], w[5], 0) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            periodic_correlation(np.ones(4), np.ones(8), 0)

    def test_known_small_case(self):
        a = np.array([1, 1, -1])
        b = np.array([1, -1, 1])
        # shift 1: sum a[i] * b[i+1 mod 3] = 1*(-1) + 1*1 + (-1)*1 = -1
        assert periodic_correlation(a, b, 1) == -1

    @given(st.integers(2, 6), st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_shift_wraps(self, degree, shift):
        pn = generate_msequence(degree)
        n = pn.size
        assert periodic_correlation(pn, pn, shift) == \
            periodic_correlation(pn, pn, shift % n)


@given(st.sampled_from(sorted(PRIMITIVE_TAPS)), st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_msequence_any_seed_is_maximal(degree, seed_raw):
    seed = 1 + seed_raw % (2 ** degree - 1)
    pn = generate_msequence(degree, seed=seed)
    assert np.count_nonzero(pn == -1) == 2 ** (degree - 1)
    assert periodic_correlation(pn, pn, 1) == -1


@given(st.sampled_from([2, 4, 8, 16, 32]))
@settings(max_examples=10, deadline=None)
def test_walsh_rows_closed_under_product(order):
    w = generate_walsh(order)
    r = order // 2
    s = order - 1
    assert (w[r] * w[s] == w[r ^ s]).all()
