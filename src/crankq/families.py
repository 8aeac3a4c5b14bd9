"""The auxiliary partition-count families and their cross-checking routes.

Seven families, each indexed by an integer k:

    p   partitions into parts from {2, ..., k}                (k >= 2)
    pp  pairs from the p_k and p_{k+1} families               (k >= 2)
    d   first difference of p: d_k(n) = p_k(n) - p_k(n-1)     (k >= 2)
    t   the nonnegative majorant sum used to bound d          (k >= 4)
    f   first difference of pp                                (k >= 2)
    g   pairs of partitions with at most k parts each         (k >= 0)
    h   pairs with exactly k parts each, the second pair
        member's largest part repeated                        (k >= 1)

Every family has a generating-function route; p (for k = 2, 3, 4) has
closed forms, and g/h have naive recurrences.  The alternate routes exist
to test the series engine, so they must not share code with it.

The theorem scans walk k = least_k, least_k + 1, ... of a family along a
:func:`ladder`, which steps each k from the one before and keeps no rung.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .errors import InvalidK
from .series import (
    TruncatedSeries, geom_divide, inv_pochhammer, inv_pochhammer_apply, vec_add,
    vec_sub,
)

Rung = Tuple[int, List[int]]  # (k, coefficients of the family's k-th series)


def least_k(family: str) -> int:
    """The least k the family is defined for."""
    if family not in _FAMILIES:
        raise InvalidK(f"unknown family {family!r}")
    return _FAMILIES[family][0]


def check_k(family: str, k: int) -> None:
    min_k = least_k(family)
    if k < min_k:
        raise InvalidK(f"family {family!r} needs k >= {min_k}, got {k}")


def p_series(k: int, order: int) -> TruncatedSeries:
    """1/(q^2; q)_{k-1}: counts partitions into parts from {2..k}.

    Equivalently (by conjugation) partitions with at most k parts whose
    largest part repeats; p_k(0) = 1 and p_k(1) = 0 hold automatically.
    """
    check_k("p", k)
    return inv_pochhammer(2, k - 1, order)


def p_explicit(k: int, n: int) -> int:
    """Closed forms for p_2, p_3, p_4; independent of the series engine."""
    if k not in (2, 3, 4):
        raise InvalidK(f"closed forms exist only for k in {{2, 3, 4}}, got {k}")
    if n < 0:
        return 0
    if k == 2:
        return 1 if n % 2 == 0 else 0
    if k == 3:
        return n // 6 if n % 6 == 1 else n // 6 + 1
    r = n % 12
    if r == 1:
        a = (n - 13) // 12  # the 12a+13 branch; yields 0 at n = 1
        return 3 * a * a + 8 * a + 5
    a = n // 12
    return {
        0: 3 * a * a + 3 * a + 1,
        3: 3 * a * a + 3 * a + 1,
        2: 3 * a * a + 4 * a + 1,
        5: 3 * a * a + 4 * a + 1,
        4: 3 * a * a + 5 * a + 2,
        7: 3 * a * a + 5 * a + 2,
        6: 3 * a * a + 6 * a + 3,
        9: 3 * a * a + 6 * a + 3,
        8: 3 * a * a + 7 * a + 4,
        11: 3 * a * a + 7 * a + 4,
        10: 3 * a * a + 8 * a + 5,
    }[r]


def pp_series(k: int, order: int) -> TruncatedSeries:
    """1/((q^2;q)_{k-1} (q^2;q)_k): pairs drawn from p_k and p_{k+1}."""
    check_k("pp", k)
    s = inv_pochhammer(2, k - 1, order)
    return inv_pochhammer_apply(s, 2, k)


def d_series(k: int, order: int) -> TruncatedSeries:
    """(1-q)/(q^2;q)_{k-1}: coefficientwise p_k(n) - p_k(n-1)."""
    check_k("d", k)
    return p_series(k, order).mul_one_minus_q_pow(1)


def f_series(k: int, order: int) -> TruncatedSeries:
    """(1-q)/((q^2;q)_{k-1}(q^2;q)_k): coefficientwise pp_k(n) - pp_k(n-1)."""
    check_k("f", k)
    return pp_series(k, order).mul_one_minus_q_pow(1)


def t_series(k: int, order: int) -> TruncatedSeries:
    """sum_{j=2}^{k} q^{2j} (1 - q^{k-j+2}) / (q^2;q)_{j-1}.

    One running 1/(q^2;q)_{j-1} is divided by (1 - q^j) per j; each term
    multiplies a copy of it by its numerator."""
    check_k("t", k)
    acc = TruncatedSeries.zero(order)
    p = TruncatedSeries.constant(1, order)
    for j in range(2, min(k, order // 2) + 1):
        p = p.div_one_minus_q_pow(j)
        acc = acc + p.mul_one_minus_q_pow(k - j + 2).shift(2 * j)
    return acc


def g_series(k: int, order: int) -> TruncatedSeries:
    """1/(q;q)_k^2: pairs of partitions with at most k parts each.

    k = 0 is the empty product, i.e. the delta sequence at 0.
    """
    check_k("g", k)
    s = inv_pochhammer(1, k, order)
    return inv_pochhammer_apply(s, 1, k)


def h_series(k: int, order: int) -> TruncatedSeries:
    """q^{2k}/((q;q)_k (q^2;q)_{k-1}); for k = 1 this is the convention
    sequence 0, 0, 1, 1, 1, ..."""
    check_k("h", k)
    s = inv_pochhammer(1, k, order)
    s = inv_pochhammer_apply(s, 2, k - 1)
    return s.shift(2 * k)


def weighted_conv(prev: list, k: int, shift: int, imax_offset: int) -> list:
    """out[n] = sum_{i=0}^{n//k + imax_offset} (i+1) * prev[n - k*i - shift].

    Naive evaluation of the (i+1)-weighted convolution used by the
    pair-counting recurrences; deliberately independent of the series
    engine so the two routes cross-check each other.
    """
    n_len = len(prev)
    out = [0] * n_len
    for n in range(n_len):
        acc = 0
        imax = n // k + imax_offset
        for i in range(imax + 1):
            j = n - k * i - shift
            if j < 0:
                break
            v = prev[j]
            if v:
                acc += (i + 1) * v
        out[n] = acc
    return out


def g_recurrence(k: int, n_max: int) -> List[int]:
    """g_k(0..n_max) via g_k(n) = sum_{i=0}^{n//k} (i+1) g_{k-1}(n - k i),
    seeded with the delta sequence; never touches the series engine."""
    check_k("g", k)
    cur = [1] + [0] * n_max
    for kk in range(1, k + 1):
        cur = weighted_conv(cur, kk, 0, 0)
    return cur


def h_recurrence(k: int, n_max: int) -> List[int]:
    """h_k(0..n_max) via h_k(n) = sum_{i=0}^{n//k - 2} (i+1) h_{k-1}(n-ki-2),
    seeded with the k = 1 convention sequence."""
    check_k("h", k)
    cur = [0, 0] + [1] * (n_max - 1) if n_max >= 2 else [0] * (n_max + 1)
    for kk in range(2, k + 1):
        cur = weighted_conv(cur, kk, 2, -2)
    return cur


# family name -> (least k, generating-function route, ladder step).  The
# step (shift, offsets) makes family k from family k - 1: multiply by
# q^shift, then divide by (1 - q^(k + i)) for each i in offsets; t has a
# ladder of its own.
_FAMILIES = {
    "p": (2, p_series, (0, (0,))),
    "pp": (2, pp_series, (0, (0, 1))),
    "d": (2, d_series, (0, (0,))),
    "t": (4, t_series, None),
    "f": (2, f_series, (0, (0, 1))),
    "g": (0, g_series, (0, (0, 0))),
    "h": (1, h_series, (2, (0, 0))),
}


def family_series(family: str, k: int, order: int) -> TruncatedSeries:
    """Dispatch to one family's generating-function route by name."""
    check_k(family, k)
    return _FAMILIES[family][1](k, order)


def _times_q_pow(c: List[int], e: int, order: int) -> List[int]:
    """c times q^e, cut to the coefficients of q^0..q^order, as a new list."""
    return ([0] * e + c[: max(order + 1 - e, 0)])[: order + 1]


def ladder(family: str, order: int) -> Iterator[Rung]:
    """The rungs (k, coefficients of q^0..q^order of the family's k-th
    series) for k = least_k(family), least_k + 1, ... without end.

    The least k is built by :func:`family_series`, and each further rung
    is a new list stepped from the one before; no rung is changed after it
    is yielded.
    """
    k = least_k(family)
    return _t_ladder(k, order) if family == "t" else _stepped_ladder(family, k, order)


def _stepped_ladder(family: str, k: int, order: int) -> Iterator[Rung]:
    shift, offsets = _FAMILIES[family][2]
    c = family_series(family, k, order).coeffs()
    while True:
        yield k, c
        k += 1
        c = _times_q_pow(c, shift, order)
        for i in offsets:
            geom_divide(c, k + i)


def _t_ladder(k: int, order: int) -> Iterator[Rung]:
    """t_j = A_j - q^{j+2} B_j for j >= k, where A_j = sum_{i=2}^{j}
    q^{2i} p_i and B_j = sum_{i=2}^{j} q^i p_i run along a p ladder."""
    a = b = [0] * (order + 1)
    for j, p in ladder("p", order):
        a = vec_add(a, _times_q_pow(p, 2 * j, order))
        b = vec_add(b, _times_q_pow(p, j, order))
        if j >= k:
            yield j, vec_sub(a, _times_q_pow(b, j + 2, order))
