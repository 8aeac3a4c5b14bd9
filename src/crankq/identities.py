"""Registry of generating-function identities and proof series.

Every entry pins two (or more) independently built expansions of the same
series; :func:`check_identity` expands both sides to a target order and
reports the smallest differing exponent, if any.  Left and right sides
never share a path: crank-based left sides go through
:func:`crankq.statistics.crank_gf`, displayed closed forms are assembled
term by term, and the partition-number identity pits the Euler product
against the Durfee-style square sum.  Proof series are built once and
reused as terms of the closed forms they come from (T1 in T6.1, T2 in
EQ7.1, TM in T5.5), so checking an identity also checks its proof series.
Closed forms share term groups through helpers, but no right-hand side is
built from another identity's right-hand side.

Infinite k-sums are truncated once the leading exponent of the k-th
summand (strictly increasing in k) passes the order; the double sums'
inner geometric sums are taken in closed form.

Every k-sum of inverse-Pochhammer products is summed inside out
(:func:`_ksum_ip`).  With summand k written q^{e_k} / P_k, the running
sum starts as q^{e_K} at the last k, is multiplied by P_k / P_{k+1} and
has q^{e_k} added at each k below, and is divided by the first product
at the end.  A step is one or two geometric divisions for the growing
(q^a;q)_{k+c} and moving (1 - q^k) factors of the paper's sums, instead
of the O(k + m) of a product built from 1.  The running sum is kept
divided by q^{e_k}, as the order - e_k + 1 coefficients the shift leaves
below the order, so adding q^{e_k} only puts a 1 and zeros in front of
it, where a forward sum adds each summand in.  A sum to order N whose
exponent grows quadratically in k costs O(N^1.5) coefficient updates.
The two sums whose summands are family series, S and the right side of
OSPT-DECOMP, walk :func:`~crankq.families.ladder` instead
(:func:`_ladder_sum`), so a sum over K summands steps K series.

The crank sides all read :func:`~crankq.statistics.crank_gf` through one
bounded memo, so a sweep over the m-grids builds each (m, order) series
once.  It keeps the last _GRID_HI + 1 = 16 series asked for, one grid's
worth at one order: O(16 N) big ints at order N.

Identity ids and proof-series ids are stable public strings, used by the
CLI and the acceptance suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import InvalidParams, UnknownIdentity
from .families import Rung, f_series, ladder, p_series
from .series import (
    TruncatedSeries,
    first_mismatch,
    geom_divide,
    geom_multiply,
    inv_pochhammer_apply,
)
from .statistics import crank_gf, partition_numbers

Builder = Callable[..., TruncatedSeries]

_GRID_HI = 15  # top of every default parameter grid


# --------------------------------------------------------------------------
# small construction helpers
# --------------------------------------------------------------------------


def _ip(order: int, *factors: Tuple[int, int]) -> TruncatedSeries:
    """Product of inverse Pochhammer factors; factors are (a, count) pairs.

    (e, 1) is the geometric factor 1/(1 - q^e); repeat it for a power.
    """
    s = TruncatedSeries.constant(1, order)
    for a, cnt in factors:
        s = inv_pochhammer_apply(s, a, cnt)
    return s


def _poly(order: int, *terms: Tuple[int, int]) -> TruncatedSeries:
    """The polynomial sum of c q^e over (e, c) pairs, truncated at order."""
    coeffs = [0] * (order + 1)
    for e, c in terms:
        if e <= order:
            coeffs[e] += c
    return TruncatedSeries.from_coeffs(coeffs)


def _shifts(s: TruncatedSeries, *exps: int) -> TruncatedSeries:
    """s * (q^e1 + q^e2 + ...)."""
    acc = s.shift(exps[0])
    for e in exps[1:]:
        acc = acc + s.shift(e)
    return acc


def _ladder_sum(order: int, rungs: Iterable[Rung], exp_fn) -> TruncatedSeries:
    """Sum q^exp_fn(k) c_k over the rungs (k, c_k), each c_k cut at this
    order, up to the first k whose exponent passes the order."""
    acc = [0] * (order + 1)
    for k, c in rungs:
        if (e := exp_fn(k)) > order:
            break
        acc[e:] = map(add, acc[e:], c)
    return TruncatedSeries.from_coeffs(acc)


def _exponents(factors, below: int) -> Counter:
    """The multiset of exponents e < below of the (1 - q^e) in the product
    of (q^a;q)_count over the (a, count) factors."""
    out: Counter = Counter()
    for a, cnt in factors:
        if a < 1 or cnt < 0:
            raise ValueError(f"bad inverse-Pochhammer factor ({a}, {cnt})")
        out.update(range(a, min(a + cnt, below)))
    return out


def _ksum_ip(
    order, k_start, exp_fn, factors_fn, numer=None, k_end=None
) -> TruncatedSeries:
    """sum_{k >= k_start} q^exp_fn(k) / prod (q^a;q)_count over the (a, count)
    pairs of factors_fn(k), times (1 - q^numer) if numer is given; k stops
    at k_end (if given) or once exp_fn(k), strictly increasing, passes the
    order.

    With e_k = exp_fn(k) and P_k the k-th product, the sum is taken inside
    out: W_k = q^{e_k} + (P_k / P_{k+1}) W_{k+1} from the last k down, and
    the sum is W_{k_start} / P_{k_start}.  One coefficient list holds
    W_k / q^{e_k} (order - e_k + 1 coefficients): each step multiplies it
    by (1 - q^e) for each exponent of P_k's factor multiset missing from
    P_{k+1}'s, divides it by (1 - q^e) for each one P_{k+1} adds, and puts
    the 1 and e_{k+1} - e_k - 1 zeros in front.  Every summand's factors
    are read (and checked) before any coefficient is touched.
    """
    terms = []  # (e_k, the exponents of P_k below order - e_k + 1)
    k = k_start
    while (k_end is None or k <= k_end) and (e := exp_fn(k)) <= order:
        terms.append((e, _exponents(factors_fn(k), order - e + 1)))
        k += 1
    run: List[int] = []  # W_{k+1} / q^{e_{k+1}}; empty past the last summand
    top, held = order + 1, Counter()
    for e, now in reversed(terms):
        for x in (now - held).elements():
            if x < len(run):
                geom_multiply(run, x)
        for x in (held - now).elements():
            geom_divide(run, x)
        run[:0] = [1] + [0] * (top - e - 1)
        top, held = e, now
    for x in held.elements():
        geom_divide(run, x)
    s = TruncatedSeries.from_coeffs([0] * top + run)
    return s if numer is None else s.mul_one_minus_q_pow(numer)


def _double_sum(order: int, k_exp, step, lag: int, core) -> TruncatedSeries:
    """sum_{k>=3} q^{k_exp(k)} sum_{i>=0} q^{step(k) i} (1 - q^{i+lag})
    / prod core(k), with the inner sum in closed form
    1/(1 - q^{step}) - q^{lag}/(1 - q^{step+1}); core(k) gives the
    inverse-Pochhammer factors."""
    near = _ksum_ip(order, 3, k_exp, lambda k: core(k) + ((step(k), 1),))
    far = _ksum_ip(
        order, 3, lambda k: k_exp(k) + lag, lambda k: core(k) + ((step(k) + 1, 1),)
    )
    return near - far


# --------------------------------------------------------------------------
# the four expansions of the p_k generating function
# --------------------------------------------------------------------------


def _pk(order: int, k: int) -> TruncatedSeries:
    return p_series(k, order)


def _p_factor(j: int):
    """The factors of 1/(q^2;q)_{j-1}."""
    return ((2, j - 1),)


def _pk_by_smallest_part(order: int, k: int) -> TruncatedSeries:
    """1 + sum_{j=2}^{k} q^j / (q^j;q)_{k-j+1}."""
    return TruncatedSeries.constant(1, order) + _ksum_ip(
        order, 2, lambda j: j, lambda j: ((j, k - j + 1),), k_end=k
    )


def _pk_by_repeated_top(order: int, k: int) -> TruncatedSeries:
    """1 - q + q/(q^2;q)_{k-2} + sum_{j=1}^{k} q^{2j} / (q^2;q)_{j-1}."""
    acc = _poly(order, (0, 1), (1, -1)) + _ip(order, (2, k - 2)).shift(1)
    return acc + _ksum_ip(order, 1, lambda j: 2 * j, _p_factor, k_end=k)


def _pk_by_top_part(order: int, k: int) -> TruncatedSeries:
    """q^k + 1/(q^2;q)_{k-2} + sum_{j=2}^{k} q^{k+j} / (q^2;q)_{j-1}."""
    acc = _poly(order, (k, 1)) + _ip(order, (2, k - 2))
    return acc + _ksum_ip(order, 2, lambda j: k + j, _p_factor, k_end=k)


def _dk(order: int, k: int) -> TruncatedSeries:
    return p_series(k, order).mul_one_minus_q_pow(1)


def _dk_expand_rhs(order: int, k: int) -> TruncatedSeries:
    """1 - q + q^2 - q^{k+1}
    + sum_{j=2}^{k} q^{2j} (1 - q^{k-j+1}) / (q^2;q)_{j-1},
    with the sum split at its numerator."""
    acc = _poly(order, (0, 1), (1, -1), (2, 1), (k + 1, -1))
    acc = acc + _ksum_ip(order, 2, lambda j: 2 * j, _p_factor, k_end=k)
    return acc - _ksum_ip(order, 2, lambda j: j + k + 1, _p_factor, k_end=k)


# --------------------------------------------------------------------------
# crank-count closed forms and the term groups the m >= 1 forms share
# --------------------------------------------------------------------------


@lru_cache(maxsize=_GRID_HI + 1)
def _crank_series(m: int, order: int) -> TruncatedSeries:
    """crank_gf(m, order), kept for the last _GRID_HI + 1 (m, order) pairs
    asked for: one grid's worth of m = 0.._GRID_HI at one order, which the
    crank sides of L5.1 through T5.5, T6.1, EQ7.1 and OSPT-DECOMP share.
    Series are immutable, so the sides share them as they are."""
    return crank_gf(m, order)


def _crank(order: int, m: int) -> TruncatedSeries:
    return _crank_series(m, order)


def _crank_below(order: int, m: int) -> TruncatedSeries:
    return _crank_series(m - 1, order)


def _crank_diff(order: int, m: int) -> TruncatedSeries:
    return _crank_series(m - 1, order) - _crank_series(m, order)


def _head_pair(order: int, m: int, a: int) -> TruncatedSeries:
    """(1 - q) q^{m-1} / (q^a;q)_{m-a}, built as head - q head."""
    head = _ip(order, (a, m - a)).shift(m - 1)
    return head - head.shift(1)


def _sum_a(order: int, m: int) -> TruncatedSeries:
    """A = sum_{k>=2} q^{k(k+m)+3k+2m-2} / ((q^3;q)_{k-2} (q^2;q)_{k+m-2})."""
    return _ksum_ip(
        order, 2,
        lambda k: k * (k + m) + 3 * k + 2 * m - 2,
        lambda k: ((3, k - 2), (2, k + m - 2)),
    )


def _sum_b(order: int, m: int) -> TruncatedSeries:
    """B = sum_{k>=1} q^{k(k+m)+4k+2m+2} (1 - q^{m-2})
    / ((q^2;q)_k (q^2;q)_{k+m-2})."""
    return _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 2 * m + 2,
        lambda k: ((2, k), (2, k + m - 2)),
        numer=m - 2,
    )


def _sum_c(order: int, m: int, k_start: int) -> TruncatedSeries:
    """sum_{k>=k_start} q^{k(k+m)+5k+3m+1} (1 - q^{m-1})
    / ((q^2;q)_k (q^2;q)_{k+m-1})."""
    return _ksum_ip(
        order, k_start,
        lambda k: k * (k + m) + 5 * k + 3 * m + 1,
        lambda k: ((2, k), (2, k + m - 1)),
        numer=m - 1,
    )


def _crank_m_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for sum_n M(m,n) q^n, m >= 1 (seven-term expansion)."""
    acc = _shifts(_ip(order, (2, m - 1)), m, 3 * m + 4)
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
    p = _ip(order, (2, m - 1))
    acc = _head_pair(order, m, 1) + _shifts(p, 2 * m + 1, 2 * m + 2)
    acc = acc + p.div_one_minus_q_pow(2).shift(3 * m + 7)
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
    p = _ip(order, (2, m - 1))
    acc = _head_pair(order, m, 1) - _shifts(p, m, 3 * m + 4)
    acc = acc + _shifts(p, 2 * m + 1, 2 * m + 2)
    acc = acc + p.div_one_minus_q_pow(2).shift(3 * m + 7)
    acc = acc - _ip(order, (2, m)).shift(5 * m + 6)
    acc = acc + _ksum_ip(
        order, 3,
        lambda k: k * (k + m) + 2 * k + m - 1,
        lambda k: ((2, k - 1), (2, k + m - 4)),
    )
    acc = acc - _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 4 * k + 3 * m,
        lambda k: ((2, k - 1), (2, k + m - 2)),
    )
    return acc + _sum_a(order, m) + _sum_c(order, m, 2)


def _adjacent_diff_mid_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for the adjacent crank difference, m >= 2 variant."""
    p = _ip(order, (2, m - 1))
    acc = _head_pair(order, m, 2) - _ip(order, (3, m - 2)).shift(2 * m)
    acc = acc + p.shift(2 * m + 1) - p.shift(3 * m + 4)
    return acc + _sum_a(order, m) + _sum_b(order, m) + _sum_c(order, m, 1)


def _adjacent_diff_tail_rhs(order: int, m: int) -> TruncatedSeries:
    """Closed form for the adjacent crank difference, m >= 3 variant: the
    proof series TM plus its remaining positive terms."""
    acc = _tm_series(order, m) + _ip(order, (2, m - 3), (m, 1)).shift(2 * m + 5)
    acc = acc + _ksum_ip(
        order, 3,
        lambda j: 2 * j + 2 * m + 1,
        lambda j: ((j, m - j + 1),),
        k_end=m,
    )
    return acc + _ksum_ip(
        order, 1,
        lambda k: k * (k + m) + 5 * k + 3 * m + 1,
        lambda k: ((2, k), (2, m - 3), (m, k + 1)),
    )


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
    acc = _poly(order, (12, 1))
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
    acc = _poly(order, (9, 1)) + _ip(order, (2, 1)).shift(19)
    acc = acc + _ip(order, (2, 1), (2, 1)).shift(23)
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
    acc = acc + _ksum_ip(
        order, 3,
        lambda k: k * k + 6 * k + 7,
        lambda k: ((2, k - 1), (2, k - 3), (k, 1)),
    )
    acc = acc + _shifts(  # the (1 + q^2) numerator
        _ksum_ip(
            order, 3, lambda k: k * k + 7 * k + 6, lambda k: ((2, k - 1), (3, k - 2))
        ),
        0, 2,
    )
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 7 * k + 10, lambda k: ((2, k - 1), (2, k - 1))
    )
    return acc


# --------------------------------------------------------------------------
# the M(0,.) - M(1,.) and M(1,.) - M(2,.) closed forms, built on T1 and T2
# --------------------------------------------------------------------------


def _t1_negative(order: int) -> TruncatedSeries:
    """The part T1 and H share: -(q^11 + q^17 + q^19)/(1-q^2)
    - q^23/(1-q^2)^2 - q^38/(1-q^3)^2."""
    acc = -_shifts(_ip(order, (2, 1)), 11, 17, 19)
    acc = acc - _ip(order, (2, 1), (2, 1)).shift(23)
    return acc - _ip(order, (3, 1), (3, 1)).shift(38)


def _t1_series(order: int) -> TruncatedSeries:
    acc = _t1_negative(order) + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((4, k - 3), (2, k - 1))
    )
    acc = acc + _double_sum(
        order,
        lambda k: k * k + 6 * k + 5,
        lambda k: k - 1,
        2,
        lambda k: ((2, k - 1), (2, k - 3)),
    )
    acc = acc + _double_sum(
        order,
        lambda k: k * k + 9 * k + 8,
        lambda k: k,
        8,
        lambda k: ((2, k - 2), (3, k - 2), (k + 1, 1)),
    )
    return acc


def _h_series_bound(order: int) -> TruncatedSeries:
    return _ip(order, (2, 3)).shift(36) + _t1_negative(order)


def _first_diff_rhs(order: int) -> TruncatedSeries:
    """Closed form for sum_n (M(0,n) - M(1,n)) q^n: T1 plus the rest."""
    acc = _t1_series(order) + _poly(
        order, (0, 1), (1, -2), (3, 1), (4, 1), (7, -1), (9, -1), (12, 1), (18, 1)
    )
    acc = acc + _shifts(_ip(order, (2, 1)), 10, 14, 20, 21)
    acc = acc + _ip(order, (2, 2)).shift(24)
    acc = acc + _ip(order, (2, 1), (2, 1)).shift(28)
    acc = acc + _ksum_ip(
        order, 3, lambda k: k * k + 5 * k, lambda k: ((3, k - 2), (2, k - 3))
    )
    acc = acc + _ksum_ip(
        order, 3,
        lambda k: k * k + 5 * k + 2,
        lambda k: ((4, k - 3), (2, k - 3), (2, 1)),
    )
    return acc


def _t2_series(order: int) -> TruncatedSeries:
    return _ksum_ip(
        order, 1,
        lambda k: k * k + 7 * k + 7,
        lambda k: ((2, k), (2, k + 1)),
        numer=1,
    )


def _mid_diff_rhs(order: int) -> TruncatedSeries:
    """Closed form for sum_n (M(1,n) - M(2,n)) q^n: T2 plus the rest."""
    g2 = _ip(order, (2, 1))
    acc = _t2_series(order) + _poly(order, (1, 1), (2, -1), (4, -1))
    acc = acc + g2.shift(5) - g2.shift(10)
    return acc + _ksum_ip(
        order, 2, lambda k: k * k + 5 * k + 2, lambda k: ((3, k - 2), (2, k))
    )


# --------------------------------------------------------------------------
# partition-number identities
# --------------------------------------------------------------------------


def _pn_euler(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs(partition_numbers(order))


def _pn_square_sum(order: int) -> TruncatedSeries:
    return TruncatedSeries.constant(1, order) + _ksum_ip(
        order, 1, lambda k: k * k, lambda k: ((1, k), (1, k))
    )


def _ospt_decomp_lhs(order: int) -> TruncatedSeries:
    return _pn_euler(order) - _crank_series(0, order).scale(21)


def _ospt_decomp_rhs(order: int) -> TruncatedSeries:
    # sum_{k>=1} q^{k^2} (g_k - 21 h_k), along the g ladder from k = 1
    g_rungs = islice(ladder("g", order), 1, None)
    rungs = (
        (k, [x - 21 * y for x, y in zip(g, h)])
        for (k, g), (_, h) in zip(g_rungs, ladder("h", order))
    )
    return _ladder_sum(order, rungs, lambda k: k * k)


# --------------------------------------------------------------------------
# the other proof series
# --------------------------------------------------------------------------


def _r_series(order: int) -> TruncatedSeries:
    return f_series(2, order).shift(15) + f_series(3, order).shift(25)


def _s_series(order: int) -> TruncatedSeries:
    # sum_{k>=3} q^{k^2+7k+7} f_{k+1}, along the f ladder from k + 1 = 4
    rungs = ((j - 1, f) for j, f in islice(ladder("f", order), 2, None))
    return _ladder_sum(order, rungs, lambda k: k * k + 7 * k + 7)


def _tm_head(order: int, m: int) -> TruncatedSeries:
    """The terms TM and UM share: -q^{2m} + q^{2m+1} + q^{3m+1}
    + (1 - q) q^{m-1} / (q^2;q)_{m-2}."""
    monomials = _poly(order, (2 * m, -1), (2 * m + 1, 1), (3 * m + 1, 1))
    return monomials + _head_pair(order, m, 2)


def _tm_series(order: int, m: int) -> TruncatedSeries:
    return _tm_head(order, m) + _sum_a(order, m) + _sum_b(order, m)


def _um_series(order: int, m: int) -> TruncatedSeries:
    return _tm_head(order, m) + _ip(order, (2, m)).shift(4 * m + 8)


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


def _identity(identity_id: str, description: str, *sides: Builder, **kw) -> None:
    REGISTRY[identity_id] = IdentityEntry(identity_id, description, sides, **kw)


_identity("PK-FORMS", "four expansions of the bounded-part partition count agree",
          _pk, _pk_by_smallest_part, _pk_by_repeated_top, _pk_by_top_part,
          param="k", param_min=2)
_identity("DK-EXPAND", "difference series (1-q)/(q^2;q)_{k-1} equals its expansion",
          _dk, _dk_expand_rhs, param="k", param_min=2)
_identity("L5.1", "crank count series for fixed m >= 1, seven-term expansion",
          _crank, _crank_m_rhs, param="m", param_min=1)
_identity("L5.2", "crank count series shifted down one in m, nine-term expansion",
          _crank_below, _crank_m_minus_1_rhs, param="m", param_min=1)
_identity("T5.3", "adjacent crank difference, closed form valid for m >= 1",
          _crank_diff, _adjacent_diff_general_rhs, param="m", param_min=1)
_identity("T5.4", "adjacent crank difference, closed form valid for m >= 2",
          _crank_diff, _adjacent_diff_mid_rhs, param="m", param_min=2)
_identity("T5.5", "adjacent crank difference, closed form valid for m >= 3",
          _crank_diff, _adjacent_diff_tail_rhs, param="m", param_min=3)
_identity("L6.1", "summation rewrite: split (q^2;q)_{k-1} factor, four sums",
          _rw1_lhs, _rw1_rhs)
_identity("L6.2", "summation rewrite: split (q^3;q)_{k-2} factor, three sums",
          _rw2_lhs, _rw2_rhs)
_identity("L6.3", "summation rewrite: squared factor expansion, nine sums",
          _rw3_lhs, _rw3_rhs)
_identity("T6.1", "crank difference M(0,.) - M(1,.), fully expanded closed form",
          partial(_crank_diff, m=1), _first_diff_rhs)
_identity("EQ7.1", "crank difference M(1,.) - M(2,.), closed form",
          partial(_crank_diff, m=2), _mid_diff_rhs)
_identity("PN-GF", "partition numbers: Euler product vs square-indexed sum",
          _pn_euler, _pn_square_sum)
_identity("OSPT-DECOMP", "p(n) - 21 M(0,n) decomposed over the pair-count families",
          _ospt_decomp_lhs, _ospt_decomp_rhs, cmp_from=2)


PROOF_SERIES: Dict[str, dict] = {
    sid: {"builder": builder, "param": param, "param_min": param_min,
          "description": description}
    for sid, builder, param, param_min, description in (
        ("T1", _t1_series, None, 0,
         "nonnegative core of the M(0,.)-M(1,.) expansion"),
        ("H", _h_series_bound, None, 0,
         "lower bound series for T1 from exponent 11 on"),
        ("T2", _t2_series, None, 0,
         "nonnegative core of the M(1,.)-M(2,.) expansion"),
        ("R", _r_series, None, 0,
         "low-index part of T2 (first two difference factors)"),
        ("S", _s_series, None, 0,
         "tail of T2 over difference factors with index >= 4"),
        ("TM", _tm_series, "m", 3,
         "nonnegative core of the adjacent difference, m >= 3"),
        ("UM", _um_series, "m", 3, "closed-form minorant of TM"),
    )
}


def _resolve(registry: dict, key: str, order: int = 0,
             params: Optional[Dict[str, int]] = None):
    """The registered entry for key and its checked params.

    Raises UnknownIdentity for an unknown key, and InvalidParams for params
    that do not fit the entry's parameter (when given) or a negative order.
    """
    if key not in registry:
        raise UnknownIdentity(key)
    entry = registry[key]
    spec = entry if isinstance(entry, dict) else vars(entry)
    param, param_min = spec["param"], spec["param_min"]
    clean: Dict[str, int] = {}
    if params is None or param is None:
        if params:
            raise InvalidParams(f"{key} takes no parameters, got {params}")
    else:
        extra = set(params) - {param}
        if extra:
            raise InvalidParams(f"{key} takes only {param!r}, got {sorted(extra)}")
        if param not in params:
            raise InvalidParams(f"{key} requires parameter {param!r}")
        value = params[param]
        if not isinstance(value, int) or value < param_min:
            raise InvalidParams(f"{key} needs {param} >= {param_min}, got {value}")
        clean = {param: value}
    if order < 0:
        raise InvalidParams("order must be nonnegative")
    return entry, clean


def check_identity(identity_id: str, order: int, **params: int) -> IdentityResult:
    """Expand all sides of one identity to the given order and diff them.

    Returns a result whose ``first_mismatch`` is the smallest exponent at
    which two sides disagree (with both coefficients), or None on a pass.
    """
    entry, clean = _resolve(REGISTRY, identity_id, order, params)
    sides = [b(order, **clean) for b in entry.sides]
    mismatch = None
    for other in sides[1:]:
        mismatch = first_mismatch(sides[0], other, entry.cmp_from)
        if mismatch is not None:
            break
    return IdentityResult(
        id=entry.id, params=clean, order=order, first_mismatch=mismatch
    )


def identity_grid(identity_id: str, hi: Optional[int] = None) -> List[Dict[str, int]]:
    """Default parameter grid for one identity: the single empty dict for
    parameterless entries, else param = lower bound .. hi (default 15)."""
    entry, _ = _resolve(REGISTRY, identity_id)
    if entry.param is None:
        return [{}]
    top = _GRID_HI if hi is None else hi
    return [{entry.param: v} for v in range(entry.param_min, top + 1)]


def proof_series(series_id: str, order: int, **params: int) -> TruncatedSeries:
    """Build one of the registered proof series at the given order."""
    spec, clean = _resolve(PROOF_SERIES, series_id, order, params)
    return spec["builder"](order, **clean)


def list_identities() -> List[str]:
    return sorted(REGISTRY)


def list_proof_series() -> List[str]:
    return sorted(PROOF_SERIES)
