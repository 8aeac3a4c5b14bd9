"""Family routes: series vs closed forms, recurrences, growth bounds."""

from __future__ import annotations

import time

import pytest

from crankq.errors import InvalidK
from crankq.families import (
    d_series,
    f_series,
    family_series,
    g_recurrence,
    g_series,
    h_recurrence,
    h_series,
    p_explicit,
    p_series,
    pp_series,
    t_series,
)

N = 2000


def test_invalid_k_everywhere():
    with pytest.raises(InvalidK):
        p_series(1, 10)
    with pytest.raises(InvalidK):
        pp_series(1, 10)
    with pytest.raises(InvalidK):
        t_series(3, 10)
    with pytest.raises(InvalidK):
        h_series(0, 10)
    with pytest.raises(InvalidK):
        g_series(-1, 10)
    with pytest.raises(InvalidK):
        p_explicit(5, 3)
    with pytest.raises(InvalidK):
        family_series("nope", 2, 10)


@pytest.mark.parametrize("family", ["p", "pp", "d", "t", "f", "g", "h"])
def test_huge_k_costs_only_the_factors_within_the_order(family):
    # no factor (1 - q^e) with e past the order changes the series, so k
    # = 10**9 must give the k = 7 values at order 5 without 10**9 steps
    start = time.perf_counter()
    assert family_series(family, 10**9, 5) == family_series(family, 7, 5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_p_explicit_matches_series_to_2000(k):
    coeffs = p_series(k, N).coeffs()
    assert coeffs == [p_explicit(k, n) for n in range(N + 1)]


def test_p_known_values():
    assert p_explicit(2, 5) == 0
    assert p_explicit(3, 6) == 2
    assert p_explicit(3, 7) == 1
    assert p_explicit(4, 12) == 7
    assert p_explicit(4, 15) == 7
    s = p_series(2, 20).coeffs()
    assert all(s[n] == (1 if n % 2 == 0 else 0) for n in range(21))


def test_p_conventions_hold_automatically():
    for k in (2, 5, 9):
        s = p_series(k, 10)
        assert s.coeff(0) == 1
        assert s.coeff(1) == 0


def test_pp_is_convolution_of_adjacent_p_families():
    for k in (2, 3, 6):
        conv = p_series(k, 200) * p_series(k + 1, 200)
        assert conv.coeffs() == pp_series(k, 200).coeffs()
    assert pp_series(2, 10).coeff(0) == 1
    assert pp_series(2, 10).coeff(1) == 0
    assert pp_series(2, 10).coeff(4) == 3


def test_d_and_f_are_first_differences():
    for k in (2, 4, 7):
        p = p_series(k, 100).coeffs()
        d = d_series(k, 100).coeffs()
        assert all(d[n] == p[n] - (p[n - 1] if n else 0) for n in range(101))
        pp = pp_series(k, 100).coeffs()
        f = f_series(k, 100).coeffs()
        assert all(f[n] == pp[n] - (pp[n - 1] if n else 0) for n in range(101))


def test_d_small_k_patterns():
    d2 = d_series(2, 50).coeffs()
    assert all(d2[n] == (1 if n % 2 == 0 else -1) for n in range(51))
    d3 = d_series(3, 50).coeffs()
    assert all((d3[n] == -1) == (n % 6 == 1) for n in range(51))


def test_f2_odd_closed_form():
    f2 = f_series(2, N).coeffs()
    for n in range(1, N + 1, 2):
        assert f2[n] == -((n + 5) // 6)
    for n in range(0, N + 1, 2):
        assert f2[n] >= 0


def test_t_recurrence_residual():
    # d_k(n) = t_{k-1}(n) + d_k(n - 2k) once n >= 2k + 2
    for k in (5, 9, 14):
        d = d_series(k, 400).coeffs()
        t = t_series(k - 1, 400).coeffs()
        for n in range(2 * k + 2, 401):
            assert d[n] - t[n] - d[n - 2 * k] == 0


def test_t_nonnegativity_window():
    t5 = t_series(5, 30)
    assert t5.scan_sign(13, ">=0") == []
    for k in range(4, 21):
        assert t_series(k, 60).scan_sign(0, ">=0") == []


@pytest.mark.parametrize("k", range(0, 11))
def test_g_recurrence_matches_series(k):
    assert g_series(k, N).coeffs() == g_recurrence(k, N)


@pytest.mark.parametrize("k", range(1, 11))
def test_h_recurrence_matches_series(k):
    assert h_series(k, N).coeffs() == h_recurrence(k, N)


def test_g_h_base_cases():
    g0 = g_series(0, 6).coeffs()
    assert g0 == [1, 0, 0, 0, 0, 0, 0]
    g1 = g_series(1, 10).coeffs()
    assert g1 == [n + 1 for n in range(11)]
    h1 = h_series(1, 6).coeffs()
    assert h1 == [0, 0, 1, 1, 1, 1, 1]
    # the k = 1 specialization of the product form gives the same sequence
    from crankq.series import TruncatedSeries

    formula = TruncatedSeries.constant(1, 6).div_one_minus_q_pow(1).shift(2)
    assert formula.coeffs() == h1
    assert h_series(2, 10).coeff(4) == 1
    assert g_series(2, 10).coeff(7) == 40


def test_h_vanishes_below_twice_k():
    for k in (2, 3, 5):
        h = h_series(k, 40).coeffs()
        assert all(h[n] == 0 for n in range(2 * k))
        assert h[2 * k] == 1


def test_g_h_monotone():
    for k in (1, 2, 5):
        g = g_series(k, 200).coeffs()
        h = h_series(k, 200).coeffs()
        assert all(g[n + 1] >= g[n] for n in range(200))
        assert all(h[n + 1] >= h[n] for n in range(200))


def test_cross_family_bound():
    for k in (2, 3, 4):
        h = h_series(k, 300).coeffs()
        hp = h_series(k - 1, 300).coeffs()
        assert all(k * k * h[n] <= n * n * hp[n] for n in range(301))


def test_polynomial_bounds_exact_integers():
    g2 = g_series(2, 500).coeffs()
    assert all(24 * g2[n] >= n**3 for n in range(501))
    g3 = g_series(3, 500).coeffs()
    assert all(4320 * g3[n] >= n**5 for n in range(3, 501))
    g4 = g_series(4, 500).coeffs()
    assert all(2903040 * g4[n] >= n**7 for n in range(8, 501))
    h2 = h_series(2, 500).coeffs()
    assert all(4 * h2[n] <= n * n for n in range(501))
    h3 = h_series(3, 500).coeffs()
    assert all(36 * h3[n] <= n**4 for n in range(501))
