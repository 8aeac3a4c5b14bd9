"""Production paths for M(m,n), N(m,n), p(n) and the ospt function.

Both tables come from the sparse forms over 1/(q)_inf: for m >= 0,

    sum_n N(m,n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{k(3k-1)/2+mk} (1-q^k)
    sum_n M(m,n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{k(k-1)/2+mk} (1-q^k)

(Atkin--Swinnerton-Dyer for the rank, Garvan for the crank), with negative
m filled in by the symmetry counts(m,n) = counts(-m,n).  Each k-term adds
the p(n) vector shifted by lead(k)+mk and subtracts it shifted k further,
and row m has O(n_max/(m+1)) terms, so building a table costs
O(n_max^2 log n_max) exact big-int additions and O(n_max^2) memory for its
cells.  The crank's n = 1 convention row
(-1, 1), (0, -1), (1, 1) falls out of the form without any
special-casing; the rank's n = 0 row is set to [1] by convention.

:func:`crank_gf` evaluates a different crank generating function term by
term and serves as the independent second route for the crank table.
"""

from __future__ import annotations

from operator import add, sub
from typing import Callable, List, Tuple

from .series import TruncatedSeries, geom_divide, inv_pochhammer, vec_add
from .tables import CumulativeTable, DistributionTable, cumulative


def crank_gf(m: int, order: int) -> TruncatedSeries:
    """The series whose q^n coefficient is the count of partitions of n
    with crank m (m >= 0), from the single-variable generating function

        (1-q) q^m / (q;q)_m
            + sum_{k>=1} q^{k(k+m)+2k+m} / ((q;q)_k (q^2;q)_{k+m-1}),

    truncated once the leading exponent k(k+m)+2k+m passes the order.

    The k-th product is stepped from the (k-1)-th, which starts as
    1/(q^2;q)_{m-1} (1 at m = 0): it is cut to the order - exp(k) + 1
    coefficients the shift leaves, then divided by (1 - q^k) and, when
    k + m - 1 >= 1, by (1 - q^{k+m}).  This loop is the crank side's own
    and shares no code with the closed forms in :mod:`crankq.identities`."""
    if m < 0:
        raise ValueError("crank_gf takes m >= 0; use symmetry for m < 0")
    t = inv_pochhammer(1, m, order).shift(m)
    acc = t.mul_one_minus_q_pow(1).coeffs()
    run = inv_pochhammer(2, max(m - 1, 0), order).coeffs()
    k = 1
    while (e := k * (k + m) + 2 * k + m) <= order:
        del run[order - e + 1 :]
        geom_divide(run, k)
        if k + m - 1 >= 1:
            geom_divide(run, k + m)
        acc[e:] = vec_add(acc[e:], run)
        k += 1
    return TruncatedSeries.from_coeffs(acc)


def _sparse_form_rows(
    n_max: int, lead: Callable[[int], int], m_lag: int
) -> Tuple[List[int], List[List[int]]]:
    """``(min_m, rows)`` of counts(m,n) for 0 <= n <= n_max, where for m >= 0

        sum_n counts(m,n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{lead(k)+mk} (1-q^k)

    and negative m is mirrored.  Row n covers |m| <= max(n - m_lag, 0);
    ``lead`` must be increasing with lead(1) >= 0.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    pvec = partition_numbers(n_max)
    by_m: List[List[int]] = []
    for m in range(n_max + 1):
        row = [0] * (n_max + 1)
        k = 1
        e = lead(1) + m
        while e <= n_max:
            plus, minus = (add, sub) if k % 2 else (sub, add)
            row[e:] = map(plus, row[e:], pvec)
            row[e + k :] = map(minus, row[e + k :], pvec)
            k += 1
            e = lead(k) + m * k
        by_m.append(row)

    rows: List[List[int]] = []
    min_m: List[int] = []
    for n, column in enumerate(zip(*by_m)):
        right = list(column[: max(n - m_lag, 0) + 1])
        rows.append(right[:0:-1] + right)
        min_m.append(1 - len(right))
    return min_m, rows


def crank_table(n_max: int) -> DistributionTable:
    """M(m,n) for all 0 <= n <= n_max and |m| <= n, from Garvan's form
    with lead(k) = k(k-1)/2."""
    min_m, rows = _sparse_form_rows(n_max, lambda k: k * (k - 1) // 2, 0)
    return DistributionTable(stat="crank", n_max=n_max, min_m=min_m, rows=rows)


def rank_table(n_max: int) -> DistributionTable:
    """N(m,n) for all 0 <= n <= n_max and |m| <= n - 1, from the
    Atkin--Swinnerton-Dyer form with lead(k) = k(3k-1)/2.  Row 0 is [1],
    the empty partition."""
    min_m, rows = _sparse_form_rows(n_max, lambda k: k * (3 * k - 1) // 2, 1)
    rows[0] = [1]
    return DistributionTable(stat="rank", n_max=n_max, min_m=min_m, rows=rows)


def partition_numbers(n_max: int) -> List[int]:
    """p(0..n_max) by dividing 1 by every (1 - q^j), j = 1..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    c = [1] + [0] * n_max
    for j in range(1, n_max + 1):
        geom_divide(c, j)
    return c


def positive_moment(table: DistributionTable, n: int) -> int:
    """sum_{m >= 1} m * counts[m, n] for one row."""
    lo = table.min_m[n]
    row = table.rows[n]
    start = max(1 - lo, 0)
    return sum((lo + i) * c for i, c in enumerate(row[start:], start=start))


def ospt(
    n_max: int,
    cranks: DistributionTable | None = None,
    ranks: DistributionTable | None = None,
) -> List[int]:
    """ospt(n) for 1 <= n <= n_max: first positive crank moment minus first
    positive rank moment.  Index 0 of the result is 0 by convention.

    Precomputed tables covering n_max may be passed to avoid rebuilding.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if cranks is None:
        cranks = crank_table(n_max)
    if ranks is None:
        ranks = rank_table(n_max)
    if cranks.n_max < n_max or ranks.n_max < n_max:
        raise ValueError("supplied tables do not cover n_max")
    out = [0]
    for n in range(1, n_max + 1):
        out.append(positive_moment(cranks, n) - positive_moment(ranks, n))
    return out


__all__ = [
    "crank_gf",
    "crank_table",
    "rank_table",
    "partition_numbers",
    "positive_moment",
    "ospt",
    "cumulative",
    "DistributionTable",
    "CumulativeTable",
]
