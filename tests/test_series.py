"""Series engine: constructors, arithmetic, scans, and ring properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crankq
from crankq.errors import OrderExceeded
from crankq.series import (
    TruncatedSeries,
    first_mismatch,
    inv_pochhammer,
    monomial,
    pochhammer,
)

ORDER = 16

# small entries keep zeros and cancellations likely; big ones exercise
# exact arithmetic far past machine words
coeff_lists = st.lists(
    st.integers(-9, 9) | st.integers(-(10**40), 10**40),
    min_size=ORDER + 1,
    max_size=ORDER + 1,
)


def series(coeffs):
    return TruncatedSeries.from_coeffs(coeffs)


def test_reports_pure_python():
    assert crankq.BACKEND == "python"


def test_constant():
    assert TruncatedSeries.constant(1, 5).coeffs() == [1, 0, 0, 0, 0, 0]
    assert TruncatedSeries.constant(0, 3).coeffs() == [0, 0, 0, 0]
    assert TruncatedSeries.constant(-20, 2).coeffs() == [-20, 0, 0]


def test_monomial():
    assert monomial(1, 3, 5).coeffs() == [0, 0, 0, 1, 0, 0]
    assert monomial(-1, 7, 5).coeffs() == [0, 0, 0, 0, 0, 0]
    assert monomial(2, 0, 1).coeffs() == [2, 0]


def test_add_sub_shrink_to_min_order():
    a = series([1, 1])
    b = series([0, 2])
    assert (a + b).coeffs() == [1, 3]
    s = series([5, -3, 2])
    assert (s - s).coeffs() == [0, 0, 0]
    assert (series([1, 0, 0]) + series([0, 1])).coeffs() == [1, 1]
    assert (series([4, 5]) - series([1, 2, 3])).coeffs() == [3, 3]
    assert (series([1, 2, 3]) - series([4, 5])).coeffs() == [-3, -3]


@pytest.mark.parametrize("make", [TruncatedSeries, TruncatedSeries.from_coeffs])
@pytest.mark.parametrize("empty", [list, tuple, lambda: iter([])],
                         ids=["list", "tuple", "iterator"])
def test_a_series_needs_a_coefficient(make, empty):
    # an iterator is truthy even when empty, so the check reads the copy
    with pytest.raises(ValueError, match="q\\^0"):
        make(empty())


def test_mul_telescopes_geometric_series():
    one_minus_q = series([1, -1, 0, 0, 0, 0])
    ones = series([1] * 6)
    assert (one_minus_q * ones).coeffs() == [1, 0, 0, 0, 0, 0]


def test_mul_monomials_and_identity():
    n = 8
    assert (monomial(1, 2, n) * monomial(1, 3, n)).coeffs() == monomial(1, 5, n).coeffs()
    s = series([3, 1, 4, 1, 5])
    assert (s * TruncatedSeries.constant(1, 4)).coeffs() == s.coeffs()


def test_div_one_minus_q_pow():
    assert TruncatedSeries.constant(1, 6).div_one_minus_q_pow(2).coeffs() == [
        1, 0, 1, 0, 1, 0, 1,
    ]
    inv_pair = series([1, 0, -1, 0, 0]).div_one_minus_q_pow(2)
    assert inv_pair.coeffs() == [1, 0, 0, 0, 0]
    assert TruncatedSeries.constant(1, 7).div_one_minus_q_pow(1).coeff(7) == 1


def test_pochhammer_values():
    n = 10
    assert pochhammer(2, 0, n).coeffs() == TruncatedSeries.constant(1, n).coeffs()
    assert pochhammer(1, 1, n).coeffs()[:3] == [1, -1, 0]
    assert pochhammer(2, 2, 5).coeffs() == [1, 0, -1, -1, 0, 1]
    assert pochhammer(1, 10**9, 5) == pochhammer(1, 5, 5)


def test_inv_pochhammer_counts_bounded_part_partitions():
    # parts from {2, 3}: 2x + 3y = 7 has the single solution (2, 1)
    assert inv_pochhammer(2, 2, 7).coeff(7) == 1
    assert inv_pochhammer(1, 0, 9).coeffs() == TruncatedSeries.constant(1, 9).coeffs()
    # parts from {2, 3, 4}: seven ways to make 12
    assert inv_pochhammer(2, 3, 12).coeff(12) == 7


def test_inv_pochhammer_matches_enumeration_oracle():
    from crankq.enumeration import partitions_of

    hi = 40
    per_n = [list(partitions_of(n)) for n in range(hi + 1)]
    for a, k in ((1, 3), (2, 2), (2, 5), (3, 4)):
        s = inv_pochhammer(a, k, hi)
        allowed = set(range(a, a + k))
        for n in range(hi + 1):
            count = sum(1 for p in per_n[n] if all(x in allowed for x in p))
            assert s.coeff(n) == count, (a, k, n)


def test_poch_times_inv_poch_is_one():
    n = 40
    for a, k in ((1, 3), (2, 4), (3, 2), (5, 0)):
        prod = pochhammer(a, k, n) * inv_pochhammer(a, k, n)
        assert prod.coeffs() == TruncatedSeries.constant(1, n).coeffs()


def test_coeff_conventions():
    s = series([1, 2, 3])
    assert s.coeff(1) == 2
    assert s.coeff(-4) == 0
    with pytest.raises(OrderExceeded):
        series([1, 2]).coeff(5)


def test_shift_drops_tail():
    s = series([1, 2, 3, 4])
    assert s.shift(2).coeffs() == [0, 0, 1, 2]
    assert s.shift(9).coeffs() == [0, 0, 0, 0]
    assert s.shift(0) is s


def test_mul_one_minus_q_pow_zero_exponent_kills_series():
    s = series([1, 2, 3])
    assert s.mul_one_minus_q_pow(0).coeffs() == [0, 0, 0]


def test_scan_sign():
    assert series([1, -1, 2]).scan_sign(0, ">=0") == [1]
    assert TruncatedSeries.zero(5).scan_sign(0, ">=0") == []
    assert series([0, 1, 1, 0]).scan_sign(1, ">=1") == [3]
    target = series([1, 2, 3])
    assert series([1, 5, 3]).scan_sign(0, target) == [1]


def test_first_mismatch_reports_smallest_exponent():
    a = series([1, 2, 3, 4])
    b = series([1, 2, 9, 9])
    assert first_mismatch(a, b) == (2, 3, 9)
    assert first_mismatch(a, a) is None
    assert first_mismatch(a, b, start=3) == (3, 4, 9)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(xs, ys, zs):
    a, b, c = series(xs), series(ys), series(zs)
    assert (a * b).coeffs() == (b * a).coeffs()
    assert ((a * b) * c).coeffs() == (a * (b * c)).coeffs()
    assert (a * (b + c)).coeffs() == (a * b + a * c).coeffs()
    assert ((a + b) + c).coeffs() == (a + (b + c)).coeffs()


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.integers(1, ORDER + 3))
def test_geometric_divide_inverts_multiply(xs, e):
    # e also runs past the series length, where both operations change nothing
    a = series(xs)
    assert a.mul_one_minus_q_pow(e).div_one_minus_q_pow(e).coeffs() == a.coeffs()
    assert a.div_one_minus_q_pow(e).mul_one_minus_q_pow(e).coeffs() == a.coeffs()
