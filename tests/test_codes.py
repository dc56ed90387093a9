"""Spreading-code construction: orthogonal code matrices and m-sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.codes import PRIMITIVE_TAPS, generate_msequence, generate_walsh

from oracles import lfsr_chips

# LFSR stepped by hand: degree 3, taps (3, 1), start state 0b001.
# state  001 -> 011 -> 111 -> 110 -> 101 -> 010 -> 100 -> back to 001
# outbit   0      0      1      1      1      0      1
# chips   +1     +1     -1     -1     -1     +1     -1
DEG3_CHIPS = np.array([1, 1, -1, -1, -1, 1, -1], dtype=np.int8)


def _periodic_correlation(a, b, shift):
    """Full-period correlation sum_i a[i] b[(i + shift) mod L], exact integer."""
    return int(np.dot(np.asarray(a, np.int64), np.roll(np.asarray(b, np.int64), -shift)))


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
        assert PRIMITIVE_TAPS[3] == (3, 1)
        pn = generate_msequence(3)
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
            assert _periodic_correlation(pn, pn, shift) == -1
        assert _periodic_correlation(pn, pn, 0) == n

    def test_non_primitive_taps_rejected(self, monkeypatch):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
        monkeypatch.setitem(PRIMITIVE_TAPS, 4, (4, 2))
        with pytest.raises(ValueError, match="not primitive"):
            generate_msequence(4)

    def test_period_dividing_full_length_rejected(self, monkeypatch):
        # x^4 + x^3 + x^2 + x + 1 is irreducible of order 5: the register is
        # back at its start after 15 steps too, so only the early repeat shows it
        monkeypatch.setitem(PRIMITIVE_TAPS, 4, (4, 3, 2, 1))
        with pytest.raises(ValueError, match="repeats after 5 steps"):
            generate_msequence(4)

    @pytest.mark.parametrize("degree", sorted(PRIMITIVE_TAPS))
    def test_matches_plain_lfsr(self, degree):
        pn = generate_msequence(degree)
        assert pn.dtype == np.int8
        assert np.array_equal(pn, lfsr_chips(degree, PRIMITIVE_TAPS[degree], 1))

    def test_bad_taps_rejected(self):
        # a register length without a table entry has no taps to run
        for degree in (0, 1, max(PRIMITIVE_TAPS) + 1):
            with pytest.raises(ValueError, match="no feedback taps"):
                generate_msequence(degree)


class TestPeriodicCorrelation:
    # the oracle of the m-sequence autocorrelation checks, held to hand cases
    def test_walsh_rows_zero(self):
        w = generate_walsh(8)
        assert _periodic_correlation(w[2], w[5], 0) == 0

    def test_known_small_case(self):
        a = np.array([1, 1, -1])
        b = np.array([1, -1, 1])
        # shift 1: sum a[i] * b[i+1 mod 3] = 1*(-1) + 1*1 + (-1)*1 = -1
        assert _periodic_correlation(a, b, 1) == -1

    @given(st.integers(2, 6), st.integers(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_shift_wraps(self, degree, shift):
        pn = generate_msequence(degree)
        n = pn.size
        assert _periodic_correlation(pn, pn, shift) == \
            _periodic_correlation(pn, pn, shift % n)


@given(st.sampled_from([2, 4, 8, 16, 32]))
@settings(max_examples=10, deadline=None)
def test_walsh_rows_closed_under_product(order):
    w = generate_walsh(order)
    r = order // 2
    s = order - 1
    assert (w[r] * w[s] == w[r ^ s]).all()
