"""Registry of generating-function identities and proof series.

Every entry pins two (or more) independently built expansions of the same
series; :func:`check_identity` expands both sides to a target order and
reports the smallest differing exponent, if any.  Sides never share a
construction path: crank-based sides go through
:func:`crankq.statistics.crank_gf`, displayed closed forms are assembled
term by term, and the partition-number identity pits the Euler product
against the Durfee-style square sum.

Infinite k-sums are truncated once the leading exponent of the k-th
summand (strictly increasing in k) passes the order; the same applies to
the inner index of the two double sums.

Identity ids and proof-series ids are stable public strings, used by the
CLI and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .errors import InvalidParams, UnknownIdentity
from .families import f_series, g_series, h_series, p_series
from .series import (
    TruncatedSeries,
    first_mismatch,
    inv_pochhammer_apply,
    monomial,
)
from .statistics import crank_gf, partition_numbers

Builder = Callable[..., TruncatedSeries]


# --------------------------------------------------------------------------
# small construction helpers
# --------------------------------------------------------------------------


def _zero(order: int) -> TruncatedSeries:
    return TruncatedSeries.zero(order)


def _ip(order: int, *factors: Tuple[int, int]) -> TruncatedSeries:
    """Product of inverse Pochhammer factors; factors are (a, count) pairs."""
    s = TruncatedSeries.constant(1, order)
    for a, cnt in factors:
        s = inv_pochhammer_apply(s, a, cnt)
    return s


def _geom(order: int, e: int, power: int = 1) -> TruncatedSeries:
    """1 / (1 - q^e)^power."""
    s = TruncatedSeries.constant(1, order)
    for _ in range(power):
        s = s.div_one_minus_q_pow(e)
    return s


def _ksum(order: int, k_start: int, exp_fn, term_fn) -> TruncatedSeries:
    """Sum term_fn(k) for k >= k_start while exp_fn(k) <= order."""
    acc = _zero(order)
    k = k_start
    while exp_fn(k) <= order:
        acc = acc + term_fn(k)
        k += 1
    return acc


def _ksum_ip(order, k_start, exp_fn, factors_fn, numer_fn=None) -> TruncatedSeries:
    """k-sum of q^exp * (optional 1 - q^numer) * inverse-Pochhammer product."""

    def term(k: int) -> TruncatedSeries:
        t = _ip(order, *factors_fn(k))
        if numer_fn is not None:
            t = t.mul_one_minus_q_pow(numer_fn(k))
        return t.shift(exp_fn(k))

    return _ksum(order, k_start, exp_fn, term)


# --------------------------------------------------------------------------
# the four expansions of the p_k generating function
# --------------------------------------------------------------------------


def _pk_by_smallest_part(order: int, k: int) -> TruncatedSeries:
    acc = TruncatedSeries.constant(1, order)
    for j in range(2, k + 1):
        acc = acc + _ip(order, (j, k - j + 1)).shift(j)
    return acc


def _pk_by_repeated_top(order: int, k: int) -> TruncatedSeries:
    acc = TruncatedSeries.constant(1, order) - monomial(1, 1, order)
    acc = acc + _ip(order, (2, k - 2)).shift(1)
    for j in range(1, k + 1):
        acc = acc + _ip(order, (2, j - 1)).shift(2 * j)
    return acc


def _pk_by_top_part(order: int, k: int) -> TruncatedSeries:
    acc = monomial(1, k, order) + _ip(order, (2, k - 2))
    acc = acc + _ip(order, (2, k - 1)).shift(2 * k)
    for j in range(2, k):
        acc = acc + _ip(order, (2, j - 1)).shift(k + j)
    return acc


# --------------------------------------------------------------------------
# crank-difference closed forms
# --------------------------------------------------------------------------


def _crank_diff(order: int, m: int) -> TruncatedSeries:
    return crank_gf(m - 1, order) - crank_gf(m, order)


def _dk_expand_rhs(order: int, k: int) -> TruncatedSeries:
    acc = TruncatedSeries.from_coeffs(
        [1, -1, 1] + [0] * (order - 2) if order >= 2 else [1, -1][: order + 1]
    )
    acc = acc - monomial(1, k + 1, order)
    for j in range(2, k):
        acc = acc + _ip(order, (2, j - 1)).mul_one_minus_q_pow(k - j + 1).shift(2 * j)
    acc = acc + _ip(order, (2, k - 1)).mul_one_minus_q_pow(1).shift(2 * k)
    return acc


def _crank_m_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for sum_n M(m,n) q^n, m >= 1 (seven-term expansion)."""
    acc = _ip(order, (2, m - 1)).shift(m)
    acc = acc + _ip(order, (2, m - 1)).shift(3 * m + 4)
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 2 * k + m,
        lambda k: ((1, k), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m,
        lambda k: ((2, k - 1), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 3 * k + 2 * m + 1,
        lambda k: ((1, k), (2, k + m - 1)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 3 * m,
        lambda k: ((2, k - 1), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 5 * k + 4 * m,
        lambda k: ((2, k - 1), (2, k + m - 1)),
    )
    return acc


def _crank_m_minus_1_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for sum_n M(m-1,n) q^n, m >= 1 (nine-term expansion).

    At m = 1 the leading term is 1 - q, so the n = 0 coefficient (the empty
    partition) is included; the crank-side builder is the full series, which
    matches.
    """
    head = _ip(order, (1, m - 1)).shift(m - 1)
    acc = head - head.shift(1)
    acc = acc + _ip(order, (2, m - 1)).shift(2 * m + 1)
    acc = acc + _ip(order, (2, m - 1)).shift(2 * m + 2)
    acc = acc + _ip(order, (2, m - 1)).div_one_minus_q_pow(2).shift(3 * m + 7)
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + k + m - 1,
        lambda k: ((1, k - 1), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 3,
        lambda k: k * (k + m) + 2 * k + m - 1,
        lambda k: ((2, k - 1), (2, k + m - 4)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 2 * k + m,
        lambda k: ((1, k), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 3,
        lambda k: k * (k + m) + 3 * k + 2 * m - 3,
        lambda k: ((2, k - 1), (2, k + m - 3)),
    )
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m - 2,
        lambda k: ((2, k - 1), (2, k + m - 2)),
    )
    return acc


def _adjacent_diff_general_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for sum_n (M(m-1,n) - M(m,n)) q^n, m >= 1."""
    head = _ip(order, (1, m - 1)).shift(m - 1)
    acc = head - head.shift(1)
    acc = acc - _ip(order, (2, m - 1)).shift(m)
    acc = acc + _ip(order, (2, m - 1)).shift(2 * m + 1)
    acc = acc + _ip(order, (2, m - 1)).shift(2 * m + 2)
    acc = acc - _ip(order, (2, m - 1)).shift(3 * m + 4)
    acc = acc + _ip(order, (2, m - 1)).div_one_minus_q_pow(2).shift(3 * m + 7)
    acc = acc - _ip(order, (2, m)).shift(5 * m + 6)
    acc = acc + _ksum_ip(
        order, 3,
        lambda k: k * (k + m) + 2 * k + m - 1,
        lambda k: ((2, k - 1), (2, k + m - 4)),
    )
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m - 2,
        lambda k: ((3, k - 2), (2, k + m - 2)),
    )
    acc = acc - _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 3 * m,
        lambda k: ((2, k - 1), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 5 * k + 3 * m + 1,
        lambda k: ((2, k), (2, k + m - 1)),
        numer_fn=lambda k: m - 1,
    )
    return acc


def _adjacent_diff_mid_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for the adjacent crank difference, m >= 2 variant."""
    acc = _ip(order, (2, m - 2)).shift(m - 1)
    acc = acc - _ip(order, (2, m - 2)).shift(m)
    acc = acc - _ip(order, (3, m - 2)).shift(2 * m)
    acc = acc + _ip(order, (2, m - 1)).shift(2 * m + 1)
    acc = acc - _ip(order, (2, m - 1)).shift(3 * m + 4)
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m - 2,
        lambda k: ((3, k - 2), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 2 * m + 2,
        lambda k: ((2, k), (2, k + m - 2)),
        numer_fn=lambda k: m - 2,
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 5 * k + 3 * m + 1,
        lambda k: ((2, k), (2, k + m - 1)),
        numer_fn=lambda k: m - 1,
    )
    return acc


def _adjacent_diff_tail_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for the adjacent crank difference, m >= 3 variant."""
    acc = (
        -monomial(1, 2 * m, order)
        + monomial(1, 2 * m + 1, order)
        + monomial(1, 3 * m + 1, order)
    )
    acc = acc + _ip(order, (2, m - 2)).shift(m - 1)
    acc = acc - _ip(order, (2, m - 2)).shift(m)
    acc = acc + _ip(order, (2, m - 3)).div_one_minus_q_pow(m).shift(2 * m + 5)
    for k in range(3, m + 1):
        acc = acc + _ip(order, (k, m - k + 1)).shift(2 * k + 2 * m + 1)
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m - 2,
        lambda k: ((3, k - 2), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 2 * m + 2,
        lambda k: ((2, k), (2, k + m - 2)),
        numer_fn=lambda k: m - 2,
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 5 * k + 3 * m + 1,
        lambda k: ((2, k), (2, m - 3), (m, k + 1)),
    )
    return acc


# --------------------------------------------------------------------------
# the three summation rewrites feeding the m = 1 closed form
# --------------------------------------------------------------------------


def _rw1_lhs(order: int) -> TruncatedSeries:
    return _ksum_ip(
        order, 3, lambda k: k * k + 3 * k, lambda k: ((2, k - 1), (2, k - 3))
    )


def _rw1_rhs(order: int) -> TruncatedSeries:
    acc = _ksum_ip(
        order, 3, lambda k: k * k + 3 * k, lambda k: ((2, k - 3), (2, k - 3))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 4 * k - 1, lambda k: ((2, k - 2), (2, k - 3))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 4 * k, lambda k: ((2, k - 2), (2, k - 3))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((2, k - 1), (2, k - 3))
    )
    return acc


def _rw2_lhs(order: int) -> TruncatedSeries:
    return _ksum_ip(
        order, 2, lambda k: k * k + 4 * k, lambda k: ((3, k - 2), (2, k - 1))
    )


def _rw2_rhs(order: int) -> TruncatedSeries:
    acc = monomial(1, 12, order)
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 4 * k, lambda k: ((3, k - 3), (2, k - 2))
    )
    acc = acc + _ksum_ip(
        order, 2, lambda k: k * k + 5 * k, lambda k: ((3, k - 2), (2, k - 1))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((3, k - 3), (2, k - 1))
    )
    return acc


def _rw3_lhs(order: int) -> TruncatedSeries:
    return _ksum_ip(
        order, 1, lambda k: k * k + 5 * k + 3, lambda k: ((2, k - 1), (2, k - 1))
    )


def _rw3_rhs(order: int) -> TruncatedSeries:
    acc = monomial(1, 9, order)
    acc = acc + _geom(order, 2).shift(19)
    acc = acc + _geom(order, 2, 2).shift(23)
    acc = acc + _ksum_ip(
        order, 2, lambda k: k * k + 5 * k + 3, lambda k: ((2, k - 1), (3, k - 2))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k + 5, lambda k: ((2, k - 1), (2, k - 3))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 6 * k + 4, lambda k: ((2, k - 1), (2, k - 2))
    )
    acc = acc + _ksum_ip(
        order, 2, lambda k: k * k + 6 * k + 5, lambda k: ((2, k - 1), (3, k - 2))
    )

    def geom_k_term(k: int) -> TruncatedSeries:
        t = _ip(order, (2, k - 1), (2, k - 3)).div_one_minus_q_pow(k)
        return t.shift(k * k + 6 * k + 7)

    acc = acc + _ksum(order, 3, lambda k: k * k + 6 * k + 7, geom_k_term)

    def one_plus_q2_term(k: int) -> TruncatedSeries:
        t = _ip(order, (2, k - 1), (3, k - 2))
        t = t + t.shift(2)
        return t.shift(k * k + 7 * k + 6)

    acc = acc + _ksum(order, 3, lambda k: k * k + 7 * k + 6, one_plus_q2_term)
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 7 * k + 10, lambda k: ((2, k - 1), (2, k - 1))
    )
    return acc


# --------------------------------------------------------------------------
# the fully expanded m = 1 closed form and its nonnegative core
# --------------------------------------------------------------------------


def _double_sum_near(order: int) -> TruncatedSeries:
    """sum_{k>=3} sum_{i>=0} q^{k^2+6k+5+(k-1)i} (1-q^{i+2})
    / ((q^2;q)_{k-1} (q^2;q)_{k-3})."""
    acc = _zero(order)
    k = 3
    while k * k + 6 * k + 5 <= order:
        core = _ip(order, (2, k - 1), (2, k - 3))
        base = k * k + 6 * k + 5
        i = 0
        while base + (k - 1) * i <= order:
            e = base + (k - 1) * i
            acc = acc + core.shift(e) - core.shift(e + i + 2)
            i += 1
        k += 1
    return acc


def _double_sum_far(order: int) -> TruncatedSeries:
    """sum_{k>=3} sum_{i>=0} q^{k^2+9k+8+ik} (1-q^{i+8})
    / ((q^2;q)_{k-2} (q^3;q)_{k-2} (1-q^{k+1}))."""
    acc = _zero(order)
    k = 3
    while k * k + 9 * k + 8 <= order:
        core = _ip(order, (2, k - 2), (3, k - 2)).div_one_minus_q_pow(k + 1)
        base = k * k + 9 * k + 8
        i = 0
        while base + k * i <= order:
            e = base + k * i
            acc = acc + core.shift(e) - core.shift(e + i + 8)
            i += 1
        k += 1
    return acc


def _first_diff_rhs(order: int) -> TruncatedSeries:
    """Closed form for sum_n (M(0,n) - M(1,n)) q^n."""
    coeffs = [0] * (order + 1)
    for e, c in ((0, 1), (1, -2), (3, 1), (4, 1), (7, -1), (9, -1), (12, 1), (18, 1)):
        if e <= order:
            coeffs[e] += c
    acc = TruncatedSeries.from_coeffs(coeffs)
    g2 = _geom(order, 2)
    for e, sign in ((10, 1), (11, -1), (14, 1), (17, -1), (19, -1), (20, 1), (21, 1)):
        acc = (acc + g2.shift(e)) if sign > 0 else (acc - g2.shift(e))
    g2sq = _geom(order, 2, 2)
    acc = acc - g2sq.shift(23)
    acc = acc + _ip(order, (2, 2)).shift(24)
    acc = acc + g2sq.shift(28)
    acc = acc - _geom(order, 3, 2).shift(38)
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((4, k - 3), (2, k - 1))
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((3, k - 2), (2, k - 3))
    )

    def mid_term(k: int) -> TruncatedSeries:
        t = _ip(order, (4, k - 3), (2, k - 3)).div_one_minus_q_pow(2)
        return t.shift(k * k + 5 * k + 2)

    acc = acc + _ksum(order, 3, lambda k: k * k + 5 * k + 2, mid_term)
    acc = acc + _double_sum_near(order)
    acc = acc + _double_sum_far(order)
    return acc


def _mid_diff_rhs(order: int) -> TruncatedSeries:
    """Closed form for sum_n (M(1,n) - M(2,n)) q^n."""
    acc = monomial(1, 1, order) - monomial(1, 2, order) - monomial(1, 4, order)
    g2 = _geom(order, 2)
    acc = acc + g2.shift(5) - g2.shift(10)
    acc = acc + _ksum_ip(
        order, 2, lambda k: k * k + 5 * k + 2, lambda k: ((3, k - 2), (2, k))
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * k + 7 * k + 7,
        lambda k: ((2, k), (2, k + 1)),
        numer_fn=lambda k: 1,
    )
    return acc


# --------------------------------------------------------------------------
# partition-number identities
# --------------------------------------------------------------------------


def _pn_euler(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs(partition_numbers(order))


def _pn_square_sum(order: int) -> TruncatedSeries:
    acc = TruncatedSeries.constant(1, order)
    acc = acc + _ksum_ip(order, 1, lambda k: k * k, lambda k: ((1, k), (1, k)))
    return acc


def _ospt_decomp_lhs(order: int) -> TruncatedSeries:
    return _pn_euler(order) - crank_gf(0, order).scale(21)


def _ospt_decomp_rhs(order: int) -> TruncatedSeries:
    acc = _zero(order)
    k = 1
    while k * k <= order:
        diff = g_series(k, order) - h_series(k, order).scale(21)
        acc = acc + diff.shift(k * k)
        k += 1
    return acc


# --------------------------------------------------------------------------
# proof series
# --------------------------------------------------------------------------


def _t1_series(order: int) -> TruncatedSeries:
    g2 = _geom(order, 2)
    acc = -g2.shift(11) - g2.shift(17) - g2.shift(19)
    acc = acc - _geom(order, 2, 2).shift(23)
    acc = acc - _geom(order, 3, 2).shift(38)
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((4, k - 3), (2, k - 1))
    )
    acc = acc + _double_sum_near(order)
    acc = acc + _double_sum_far(order)
    return acc


def _h_series_bound(order: int) -> TruncatedSeries:
    g2 = _geom(order, 2)
    acc = _ip(order, (2, 3)).shift(36)
    acc = acc - g2.shift(11) - g2.shift(17) - g2.shift(19)
    acc = acc - _geom(order, 2, 2).shift(23)
    acc = acc - _geom(order, 3, 2).shift(38)
    return acc


def _t2_series(order: int) -> TruncatedSeries:
    return _ksum_ip(
        order, 1,
        lambda k: k * k + 7 * k + 7,
        lambda k: ((2, k), (2, k + 1)),
        numer_fn=lambda k: 1,
    )


def _r_series(order: int) -> TruncatedSeries:
    return f_series(2, order).shift(15) + f_series(3, order).shift(25)


def _s_series(order: int) -> TruncatedSeries:
    acc = _zero(order)
    k = 3
    while k * k + 7 * k + 7 <= order:
        acc = acc + f_series(k + 1, order).shift(k * k + 7 * k + 7)
        k += 1
    return acc


def _tm_series(order: int, m: int) -> TruncatedSeries:
    acc = (
        -monomial(1, 2 * m, order)
        + monomial(1, 2 * m + 1, order)
        + monomial(1, 3 * m + 1, order)
    )
    head = _ip(order, (2, m - 2)).shift(m - 1)
    acc = acc + head - head.shift(1)
    acc = acc + _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m - 2,
        lambda k: ((3, k - 2), (2, k + m - 2)),
    )
    acc = acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 2 * m + 2,
        lambda k: ((2, k), (2, k + m - 2)),
        numer_fn=lambda k: m - 2,
    )
    return acc


def _um_series(order: int, m: int) -> TruncatedSeries:
    acc = (
        -monomial(1, 2 * m, order)
        + monomial(1, 2 * m + 1, order)
        + monomial(1, 3 * m + 1, order)
    )
    head = _ip(order, (2, m - 2)).shift(m - 1)
    acc = acc + head - head.shift(1)
    acc = acc + _ip(order, (2, m)).shift(4 * m + 8)
    return acc


# --------------------------------------------------------------------------
# registry plumbing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    id: str
    params: Dict[str, int]
    order: int
    first_mismatch: Optional[Tuple[int, int, int]]  # (exponent, lhs, rhs)

    @property
    def status(self) -> str:
        return "pass" if self.first_mismatch is None else "fail"

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    description: str
    sides: Tuple[Builder, ...]  # side 0 is compared against each later side
    param: Optional[str] = None  # "m" or "k"
    param_min: int = 0
    cmp_from: int = 0


REGISTRY: Dict[str, IdentityEntry] = {}


def _register(entry: IdentityEntry) -> None:
    REGISTRY[entry.id] = entry


_register(IdentityEntry(
    id="PK-FORMS",
    description="four expansions of the bounded-part partition count agree",
    sides=(
        lambda order, k: p_series(k, order),
        lambda order, k: _pk_by_smallest_part(order, k),
        lambda order, k: _pk_by_repeated_top(order, k),
        lambda order, k: _pk_by_top_part(order, k),
    ),
    param="k",
    param_min=2,
))

_register(IdentityEntry(
    id="DK-EXPAND",
    description="difference series (1-q)/(q^2;q)_{k-1} equals its expansion",
    sides=(
        lambda order, k: p_series(k, order).mul_one_minus_q_pow(1),
        _dk_expand_rhs,
    ),
    param="k",
    param_min=2,
))

_register(IdentityEntry(
    id="L5.1",
    description="crank count series for fixed m >= 1, seven-term expansion",
    sides=(lambda order, m: crank_gf(m, order), _crank_m_rhs),
    param="m",
    param_min=1,
))

_register(IdentityEntry(
    id="L5.2",
    description="crank count series shifted down one in m, nine-term expansion",
    sides=(lambda order, m: crank_gf(m - 1, order), _crank_m_minus_1_rhs),
    param="m",
    param_min=1,
))

_register(IdentityEntry(
    id="T5.3",
    description="adjacent crank difference, closed form valid for m >= 1",
    sides=(_crank_diff, _adjacent_diff_general_rhs),
    param="m",
    param_min=1,
))

_register(IdentityEntry(
    id="T5.4",
    description="adjacent crank difference, closed form valid for m >= 2",
    sides=(_crank_diff, _adjacent_diff_mid_rhs),
    param="m",
    param_min=2,
))

_register(IdentityEntry(
    id="T5.5",
    description="adjacent crank difference, closed form valid for m >= 3",
    sides=(_crank_diff, _adjacent_diff_tail_rhs),
    param="m",
    param_min=3,
))

_register(IdentityEntry(
    id="L6.1",
    description="summation rewrite: split (q^2;q)_{k-1} factor, four sums",
    sides=(_rw1_lhs, _rw1_rhs),
))

_register(IdentityEntry(
    id="L6.2",
    description="summation rewrite: split (q^3;q)_{k-2} factor, three sums",
    sides=(_rw2_lhs, _rw2_rhs),
))

_register(IdentityEntry(
    id="L6.3",
    description="summation rewrite: squared factor expansion, nine sums",
    sides=(_rw3_lhs, _rw3_rhs),
))

_register(IdentityEntry(
    id="T6.1",
    description="crank difference M(0,.) - M(1,.), fully expanded closed form",
    sides=(lambda order: _crank_diff(order, 1), _first_diff_rhs),
))

_register(IdentityEntry(
    id="EQ7.1",
    description="crank difference M(1,.) - M(2,.), closed form",
    sides=(lambda order: _crank_diff(order, 2), _mid_diff_rhs),
))

_register(IdentityEntry(
    id="PN-GF",
    description="partition numbers: Euler product vs square-indexed sum",
    sides=(_pn_euler, _pn_square_sum),
))

_register(IdentityEntry(
    id="OSPT-DECOMP",
    description="p(n) - 21 M(0,n) decomposed over the pair-count families",
    sides=(_ospt_decomp_lhs, _ospt_decomp_rhs),
    cmp_from=2,
))


PROOF_SERIES: Dict[str, dict] = {
    "T1": {"builder": _t1_series, "param": None,
           "description": "nonnegative core of the M(0,.)-M(1,.) expansion"},
    "H": {"builder": _h_series_bound, "param": None,
          "description": "lower bound series for T1 from exponent 11 on"},
    "T2": {"builder": _t2_series, "param": None,
           "description": "nonnegative core of the M(1,.)-M(2,.) expansion"},
    "R": {"builder": _r_series, "param": None,
          "description": "low-index part of T2 (first two difference factors)"},
    "S": {"builder": _s_series, "param": None,
          "description": "tail of T2 over difference factors with index >= 4"},
    "TM": {"builder": _tm_series, "param": "m", "param_min": 3,
           "description": "nonnegative core of the adjacent difference, m >= 3"},
    "UM": {"builder": _um_series, "param": "m", "param_min": 3,
           "description": "closed-form minorant of TM"},
}


def _validate_params(
    entry_id: str, param: Optional[str], param_min: int, params: Dict[str, int]
) -> Dict[str, int]:
    if param is None:
        if params:
            raise InvalidParams(f"{entry_id} takes no parameters, got {params}")
        return {}
    extra = set(params) - {param}
    if extra:
        raise InvalidParams(f"{entry_id} takes only {param!r}, got {sorted(extra)}")
    if param not in params:
        raise InvalidParams(f"{entry_id} requires parameter {param!r}")
    value = params[param]
    if not isinstance(value, int) or value < param_min:
        raise InvalidParams(f"{entry_id} needs {param} >= {param_min}, got {value}")
    return {param: value}


def check_identity(identity_id: str, order: int, **params: int) -> IdentityResult:
    """Expand all sides of one identity to the given order and diff them.

    Returns a result whose ``first_mismatch`` is the smallest exponent at
    which two sides disagree (with both coefficients), or None on a pass.
    """
    if identity_id not in REGISTRY:
        raise UnknownIdentity(identity_id)
    entry = REGISTRY[identity_id]
    clean = _validate_params(entry.id, entry.param, entry.param_min, params)
    if order < 0:
        raise InvalidParams("order must be nonnegative")
    sides = [b(order, **clean) for b in entry.sides]
    mismatch = None
    for other in sides[1:]:
        mismatch = first_mismatch(sides[0], other, entry.cmp_from)
        if mismatch is not None:
            break
    return IdentityResult(
        id=entry.id, params=clean, order=order, first_mismatch=mismatch
    )


_GRID_HI = 15  # top of every default parameter grid


def identity_grid(identity_id: str, hi: Optional[int] = None) -> List[Dict[str, int]]:
    """Default parameter grid for one identity: the single empty dict for
    parameterless entries, else param = lower bound .. hi (default 15)."""
    if identity_id not in REGISTRY:
        raise UnknownIdentity(identity_id)
    entry = REGISTRY[identity_id]
    if entry.param is None:
        return [{}]
    top = _GRID_HI if hi is None else hi
    return [{entry.param: v} for v in range(entry.param_min, top + 1)]


def proof_series(series_id: str, order: int, **params: int) -> TruncatedSeries:
    """Build one of the registered proof series at the given order."""
    if series_id not in PROOF_SERIES:
        raise UnknownIdentity(series_id)
    spec = PROOF_SERIES[series_id]
    clean = _validate_params(
        series_id, spec["param"], spec.get("param_min", 0), params
    )
    if order < 0:
        raise InvalidParams("order must be nonnegative")
    return spec["builder"](order, **clean)


def list_identities() -> List[str]:
    return sorted(REGISTRY)


def list_proof_series() -> List[str]:
    return sorted(PROOF_SERIES)
