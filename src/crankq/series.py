"""Exact arithmetic on integer power series truncated at a fixed order.

A :class:`TruncatedSeries` stores the coefficients of q^0 .. q^order as a
dense list of Python ints, so every operation is exact at any coefficient
size.  Coefficients beyond the order are *unknown*, not zero: binary
operations shrink to the smaller order, and reading past the order raises
:class:`~crankq.errors.OrderExceeded`.

Values are immutable after construction and all operations are pure, so
series can be shared freely.

The coefficient-list kernels the ring operations run on (``vec_add``,
``vec_sub``, ``vec_scale``, ``geom_divide``, ``geom_multiply``,
``cauchy_mul``) are the module-level functions below.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, List, Union

from .errors import OrderExceeded

Predicate = Union[str, "TruncatedSeries"]


# -- coefficient-list kernels ----------------------------------------------


def vec_add(a: list, b: list) -> list:
    return list(map(add, a, b))


def vec_sub(a: list, b: list) -> list:
    return list(map(sub, a, b))


def vec_scale(a: list, c: int) -> list:
    return [c * x for x in a]


def geom_divide(c: list, e: int) -> list:
    """In place: divide by (1 - q^e), i.e. c[i] += c[i-e]."""
    for i in range(e, len(c)):
        c[i] += c[i - e]
    return c


def geom_multiply(c: list, e: int) -> list:
    """In place: multiply by (1 - q^e), i.e. c[i] -= c[i-e], descending."""
    for i in range(len(c) - 1, e - 1, -1):
        c[i] -= c[i - e]
    return c


def cauchy_mul(a: list, b: list, n: int) -> list:
    """Truncated Cauchy product; n is the result length (order + 1)."""
    out = [0] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        if ai == 0:
            continue
        jmax = min(len(b), n - i)
        for j in range(jmax):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


class TruncatedSeries:
    """An integer power series in q, exact up to ``q**order``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self._coeffs = list(coeffs)
        if not self._coeffs:
            raise ValueError("a series needs at least the q^0 coefficient")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: int, order: int) -> "TruncatedSeries":
        """The constant series c + 0*q + ... + 0*q^order."""
        _check_order(order)
        coeffs = [0] * (order + 1)
        coeffs[0] = c
        return cls._wrap(coeffs)

    @classmethod
    def monomial(cls, c: int, e: int, order: int) -> "TruncatedSeries":
        """c * q^e truncated at order; zero if e exceeds the order."""
        _check_order(order)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        coeffs = [0] * (order + 1)
        if e <= order:
            coeffs[e] = c
        return cls._wrap(coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls._wrap([0] * (order + 1))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        return cls(coeffs)

    @classmethod
    def _wrap(cls, coeffs: List[int]) -> "TruncatedSeries":
        # internal: takes ownership of the list, skips copying
        s = cls.__new__(cls)
        s._coeffs = coeffs
        return s

    # -- basic accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, n: int) -> int:
        """Coefficient of q^n; 0 for n < 0, error past the order."""
        if n < 0:
            return 0
        if n >= len(self._coeffs):
            raise OrderExceeded(
                f"coefficient {n} requested but series is truncated at {self.order}"
            )
        return self._coeffs[n]

    def coeffs(self) -> List[int]:
        """A copy of the coefficient list (index i holds the q^i coefficient)."""
        return list(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self._coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if len(self._coeffs) > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._wrap(vec_add(self._coeffs, other._coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._wrap(vec_sub(self._coeffs, other._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._wrap(vec_scale(self._coeffs, -1))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self._coeffs), len(other._coeffs))
        return TruncatedSeries._wrap(cauchy_mul(self._coeffs, other._coeffs, n))

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries._wrap(vec_scale(self._coeffs, c))

    def shift(self, e: int) -> "TruncatedSeries":
        """Multiply by q^e, keeping the order (top e coefficients drop off)."""
        if e == 0:
            return self
        if e < 0:
            raise ValueError("shift exponent must be nonnegative")
        n = len(self._coeffs)
        if e >= n:
            return TruncatedSeries._wrap([0] * n)
        return TruncatedSeries._wrap([0] * e + self._coeffs[: n - e])

    def div_one_minus_q_pow(self, e: int) -> "TruncatedSeries":
        """Divide by (1 - q^e): multiply by the geometric series in q^e.

        Realised by the linear recurrence out[i] = in[i] + out[i-e].
        """
        if e < 1:
            raise ValueError("geometric divisor exponent must be >= 1")
        return TruncatedSeries._wrap(geom_divide(list(self._coeffs), e))

    def mul_one_minus_q_pow(self, e: int) -> "TruncatedSeries":
        """Multiply by (1 - q^e); e = 0 gives the zero series."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return TruncatedSeries._wrap([0] * len(self._coeffs))
        return TruncatedSeries._wrap(geom_multiply(list(self._coeffs), e))

    # -- scans -------------------------------------------------------------

    def scan_sign(self, start: int, predicate: Predicate) -> List[int]:
        """Exponents in [start, order] where the predicate fails.

        predicate is one of ``">=0"``, ``">=1"``, or a target series that the
        coefficients must equal.  An empty result means the scan passed.
        """
        if start < 0 or start > self.order:
            raise ValueError(f"scan start {start} outside [0, {self.order}]")
        cs = self._coeffs
        if isinstance(predicate, TruncatedSeries):
            t = predicate._coeffs
            hi = min(len(cs), len(t))
            if hi <= self.order:
                raise OrderExceeded(
                    f"target series order {len(t) - 1} is below scan order {self.order}"
                )
            return [i for i in range(start, hi) if cs[i] != t[i]]
        if predicate == ">=0":
            return [i for i in range(start, len(cs)) if cs[i] < 0]
        if predicate == ">=1":
            return [i for i in range(start, len(cs)) if cs[i] < 1]
        raise ValueError(f"unknown predicate {predicate!r}")


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")


# -- module-level helpers used throughout the generating-function code -----


def monomial(c: int, e: int, order: int) -> TruncatedSeries:
    return TruncatedSeries.monomial(c, e, order)


def pochhammer(a: int, k: int, order: int) -> TruncatedSeries:
    """The finite product (1 - q^a)(1 - q^(a+1)) ... (1 - q^(a+k-1)).

    k = 0 gives the empty product 1.
    """
    _check_poch_args(a, k)
    _check_order(order)
    c = [1] + [0] * order
    for e in range(a, min(a + k, order + 1)):  # no factor past the order acts
        geom_multiply(c, e)
    return TruncatedSeries._wrap(c)


def inv_pochhammer(a: int, k: int, order: int) -> TruncatedSeries:
    """1 / ((1 - q^a) ... (1 - q^(a+k-1))) truncated at order.

    The q^n coefficient counts partitions of n into parts from
    {a, ..., a+k-1}.
    """
    _check_poch_args(a, k)
    s = TruncatedSeries.constant(1, order)
    return inv_pochhammer_apply(s, a, k)


def inv_pochhammer_apply(s: TruncatedSeries, a: int, k: int) -> TruncatedSeries:
    """Multiply an existing series by 1/(q^a; q)_k (k geometric divisions
    on one copy of its coefficients)."""
    _check_poch_args(a, k)
    c = list(s._coeffs)
    for e in range(a, min(a + k, len(c))):  # no factor past the order acts
        geom_divide(c, e)
    return TruncatedSeries._wrap(c)


def _check_poch_args(a: int, k: int) -> None:
    if a < 1:
        raise ValueError("base exponent a must be >= 1")
    if k < 0:
        raise ValueError("factor count k must be >= 0")


def first_mismatch(a: TruncatedSeries, b: TruncatedSeries, start: int = 0):
    """Smallest exponent in [start, min order] where a and b differ.

    Returns (exponent, a-coefficient, b-coefficient), or None if the two
    series agree on the whole compared range.
    """
    ca, cb = a._coeffs, b._coeffs
    hi = min(len(ca), len(cb))
    for i in range(start, hi):
        if ca[i] != cb[i]:
            return (i, ca[i], cb[i])
    return None
