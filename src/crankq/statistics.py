"""Production paths for M(m,n), N(m,n), p(n) and the ospt function.

Both tables come from the sparse forms over 1/(q)_inf: for m >= 0,

    sum_n N(m,n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{k(3k-1)/2+mk} (1-q^k)
    sum_n M(m,n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{k(k-1)/2+mk} (1-q^k)

(Atkin--Swinnerton-Dyer for the rank, Garvan for the crank), with negative
m filled in by the symmetry counts(m,n) = counts(-m,n).  Reading off q^n,
the right half (m >= 0) of row n is

    half[m] = acc[m] - acc[m+1],  acc[m] = sum_k (-1)^{k-1} p(a - mk),
    a = n - lead(k),

so each k-term adds the strided reverse slice p(a), p(a-k), p(a-2k), ...
to one running list, the tail sums acc[m] = sum_{j>=m} counts(j,n), whose
first differences are the half.
Each statistic's rows come from one row source, ``_row_source``, which
makes a half with its tail sums when it is first read and keeps only the
two highest rows read: the theorem scans' streamed pass reads both, so
it makes only the rows of the statistics its scans read, and
:func:`crank_halves` and :func:`rank_halves` read the halves alone
(:func:`crank_half` reads one crank row).  Row n costs O(n log n) exact
big-int additions and O(n) memory beside the p(n) vector, and only
:func:`crank_table` and :func:`rank_table`, which collect the mirrored
rows, hold O(n_max^2) cells.  The crank's n = 1 convention row (-1, 1),
(0, -1), (1, 1) falls out of the form without any special-casing;
counts(0, 0) = 1, the empty partition, is set by ``_row_source`` and
``_column``, since the rank's form leaves it out.

A column needs no row either: counts(m, .) for one m is the same form
read down the n-axis, where each k adds two shifted slices of p
(``_column``, O(n_max^1.5) additions); it gives the theorem scans
N(0, .), N(1, .) and the crank columns M(m, .).  Only p and ospt are
still a numerator divided by (q)_inf, in one helper, ``_divide_by_q_inf``
(Euler's pentagonal recurrence, O(n_max^1.5) additions): p(n) is its
case with numerator 1, and the forms above, weighted by m and summed
over m >= 1, give the first positive moments (Andrews--Chan--Kim)

    sum_n M+(n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{k(k+1)/2} / (1-q^k),
    sum_n N+(n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{k(3k+1)/2} / (1-q^k),

so :func:`ospt` = M+ - N+ is one division of the numerators' difference.
:func:`crank_gf` evaluates a different crank generating function term
by term: it is the crank side of the identities and the independent
second route for the crank table and its columns.
"""

from __future__ import annotations

from operator import add, sub
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

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


def _crank_lead(k: int) -> int:
    return k * (k - 1) // 2


def _rank_lead(k: int) -> int:
    return k * (3 * k - 1) // 2


_Row = Tuple[List[int], List[int]]  # (half, tails) of one row


def _sparse_form_half(pvec: List[int], n: int, lead: Callable[[int], int]) -> _Row:
    """(half, tails) of row n, from p(0..n) in ``pvec``: half[m] =
    counts(m,n) and tails[m] = sum_{j>=m} counts(j,n) for
    0 <= m <= max(n - lead(1), 0), as new lists, where for m >= 0

        sum_n counts(m,n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^{k-1} q^{lead(k)+mk} (1-q^k);

    ``lead`` must be increasing, so the k = 1 slice spans the whole half."""
    # tails[m] = sum_k (-1)^{k-1} p(a - mk); half[m] = tails[m] - tails[m + 1]
    tails = [0] * (max(n - lead(1), 0) + 1)
    k = 1
    while (a := n - lead(k)) >= 0:
        s = pvec[a::-k]  # p(a - mk) for m = 0, 1, ..., a // k
        tails[: len(s)] = map(add if k % 2 else sub, tails, s)
        k += 1
    return [*map(sub, tails, tails[1:]), tails[-1]], tails


def _column(
    lead: Callable[[int], int], m: int, pvec: List[int], n_max: int
) -> List[int]:
    """counts(m, 0..n_max) for one m >= 0 of the sparse form with this
    ``lead``, from p(0..n_max) (or more) in ``pvec``:

        sum_n counts(m,n) q^n = P(q) sum_{k>=1} (-1)^{k-1} (q^e - q^{e+k}),

    with e = lead(k) + mk and P(q) = 1/(q)_inf, so each k adds two
    shifted slices of p: the column twin of :func:`_sparse_form_half`.
    counts(0, 0) is 1, the empty partition, which the rank's form leaves
    out."""
    col = [0] * (n_max + 1)
    k = 1
    while (e := lead(k) + m * k) <= n_max:
        plus, minus = (add, sub) if k % 2 else (sub, add)
        col[e:] = map(plus, col[e:], pvec)
        col[e + k :] = map(minus, col[e + k :], pvec)
        k += 1
    if m == 0:
        col[0] = 1
    return col


def _row_source(lead: Callable[[int], int], pvec: List[int]) -> Callable[[int], _Row]:
    """Row n of the sparse form with this ``lead``, as
    :func:`_sparse_form_half` gives it, from p(0..n) (or more) in ``pvec``:
    each row is made on its first read, and only the rows top - 1 and top
    are kept, for the highest row top read so far.  Row 0 is ([1], [1]),
    the empty partition, which the rank's form leaves out, and row -1 is
    ([], []), zero everywhere.  A row past the end of ``pvec`` or below -1
    raises: either would read p off the wrong end of the list."""
    kept: Dict[int, _Row] = {}

    def row(n: int) -> _Row:
        made = kept.get(n)
        if made is None:
            if not -1 <= n < len(pvec):
                raise ValueError(f"row {n} is below -1 or past p(0..{len(pvec) - 1})")
            if n > 0:
                made = _sparse_form_half(pvec, n, lead)
            else:
                made = ([1], [1]) if n == 0 else ([], [])
            kept[n] = made
            top = max(kept)
            for old in [k for k in kept if k < top - 1]:
                del kept[old]
        return made

    return row


def _halves(lead: Callable[[int], int], n_max: int, n_from: int) -> Iterator[List[int]]:
    if n_from < 0:
        raise ValueError("n_from must be nonnegative")
    row = _row_source(lead, partition_numbers(n_max))
    return (row(n)[0] for n in range(n_from, n_max + 1))


def crank_halves(n_max: int, n_from: int = 0) -> Iterator[List[int]]:
    """M(m,n) for 0 <= m <= n, one list per n = n_from..n_max, made as they
    are read, from Garvan's form with lead(k) = k(k-1)/2."""
    return _halves(_crank_lead, n_max, n_from)


def crank_half(n: int) -> List[int]:
    """M(m,n) for 0 <= m <= n, row n of :func:`crank_halves` alone."""
    return _row_source(_crank_lead, partition_numbers(n))(n)[0]


def rank_halves(n_max: int, n_from: int = 0) -> Iterator[List[int]]:
    """N(m,n) for 0 <= m <= max(n - 1, 0), one list per n = n_from..n_max,
    made as they are read, from the Atkin--Swinnerton-Dyer form with
    lead(k) = k(3k-1)/2.  Row 0 is [1], the empty partition."""
    return _halves(_rank_lead, n_max, n_from)


def _collect(stat: str, n_max: int, halves: Iterable[List[int]]) -> DistributionTable:
    """The dense table whose row n is half n mirrored about m = 0."""
    min_m: List[int] = []
    rows: List[List[int]] = []
    for half in halves:
        rows.append(half[:0:-1] + half)
        min_m.append(1 - len(half))
    return DistributionTable(stat=stat, n_max=n_max, min_m=min_m, rows=rows)


def crank_table(n_max: int) -> DistributionTable:
    """M(m,n) for all 0 <= n <= n_max and |m| <= n, from :func:`crank_halves`."""
    return _collect("crank", n_max, crank_halves(n_max))


def rank_table(n_max: int) -> DistributionTable:
    """N(m,n) for all 0 <= n <= n_max and |m| <= n - 1, from
    :func:`rank_halves`.  Row 0 is [1], the empty partition."""
    return _collect("rank", n_max, rank_halves(n_max))


def _divide_by_q_inf(c: List[int]) -> List[int]:
    """c / (q)_inf, cut to len(c) coefficients, in place, by Euler's
    pentagonal recurrence: f = c / (q)_inf has

        f(n) = c(n) + sum_{k>=1} (-1)^{k-1} (f(n - k(3k-1)/2) + f(n - k(3k+1)/2)),

    with f(n) = 0 for n < 0.  Returns c."""
    # the generalized pentagonal numbers in increasing order; their signs
    # run +, +, -, -, +, +, ...
    pent: List[int] = []
    k = 1
    while (g := k * (3 * k - 1) // 2) < len(c):
        pent += [g, g + k]
        k += 1
    for n in range(1, len(c)):
        total = c[n]
        for i, g in enumerate(pent):
            if g > n:
                break
            total += c[n - g] if i & 2 == 0 else -c[n - g]
        c[n] = total
    return c


def partition_numbers(n_max: int) -> List[int]:
    """p(0..n_max): 1 / (q)_inf."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return _divide_by_q_inf([1] + [0] * n_max)


def _add_moment_numerator(c: List[int], lead: Callable[[int], int], sign: int) -> None:
    """Add sign * sum_{k>=1} (-1)^{k-1} q^{lead(k)+k} / (1 - q^k) to c, in
    place: over (q)_inf, the first positive moment sum_{m>=1} m counts(m, n)
    of the sparse form with this ``lead``."""
    k = 1
    while (e := lead(k) + k) < len(c):
        s = sign if k % 2 else -sign
        c[e::k] = [x + s for x in c[e::k]]
        k += 1


def ospt(
    n_max: int,
    cranks: DistributionTable | None = None,
    ranks: DistributionTable | None = None,
    pvec: List[int] | None = None,
) -> List[int]:
    """ospt(n) for 1 <= n <= n_max: first positive crank moment minus first
    positive rank moment.  Index 0 of the result is 0 by convention.

    Each moment is its Andrews--Chan--Kim numerator, and their difference
    is divided by (q)_inf once, so no row and no p(n) is read.  Tables or
    a p vector passed are only checked to cover n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if any(t is not None and t.n_max < n_max for t in (cranks, ranks)):
        raise ValueError("supplied tables do not cover n_max")
    if pvec is not None and len(pvec) <= n_max:
        raise ValueError(f"pvec holds p(0..{len(pvec) - 1}), short of n_max={n_max}")
    out = [0] * (n_max + 1)
    _add_moment_numerator(out, _crank_lead, 1)
    _add_moment_numerator(out, _rank_lead, -1)
    return _divide_by_q_inf(out)


__all__ = [
    "crank_gf",
    "crank_halves",
    "crank_half",
    "rank_halves",
    "crank_table",
    "rank_table",
    "partition_numbers",
    "ospt",
    "cumulative",
    "DistributionTable",
    "CumulativeTable",
]
