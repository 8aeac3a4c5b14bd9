"""Exhaustive inequality scans with machine-readable reports.

Each theorem is a ``_run_*`` scan over its quantifier range, registered
by the ``@_theorem`` decorator above it; the scan's keyword defaults are
the theorem's grid (``k_max``, ``m_max``).  The default n-range starts at
the threshold from which the statement is claimed to hold; callers may
widen it (e.g. to locate the empirical threshold) or narrow it.  Every
comparison is exact integer arithmetic; rational bounds are
cross-multiplied, never floated.

The two-dimensional scans (THM1.1, THM1.2, THM1.6, THM1.7, COR1.8, EQ9.5,
EQ9.6) compare whole row segments at once: they read each operand with
:meth:`~crankq.tables.DistributionTable.row_slice`, prefix-summed along m
by ``itertools.accumulate`` where the statement is cumulative, and hand
both lists to ``_Recorder.check_rows``, which still sends every point
through ``_holds`` in order but builds a point dict only for a violation.
EQ4.4, which runs down the n-axis one m at a time, reads its operands
with :meth:`~crankq.tables.DistributionTable.column_slice` the same way.

Theorem ids are stable public strings consumed by the CLI and the
acceptance suite.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from . import families, statistics
from .errors import RangeError, UnknownTheorem
from .tables import CumulativeTable, DistributionTable, cumulative


def _holds(lhs: int, op: str, rhs: int) -> bool:
    # single comparison funnel; tests falsify this to prove the harness
    # cannot pass vacuously
    if op == ">=":
        return lhs >= rhs
    if op == ">":
        return lhs > rhs
    if op == "<=":
        return lhs <= rhs
    if op == "<":
        return lhs < rhs
    if op == "==":
        return lhs == rhs
    raise ValueError(f"unknown comparison {op!r}")


@dataclass(frozen=True)
class Violation:
    point: Dict[str, object]
    lhs: int
    rhs: int

    def as_dict(self) -> dict:
        return {"point": dict(self.point), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class VerificationReport:
    theorem_id: str
    n_from: int
    n_to: int
    params: Dict[str, int]
    checked: int
    violations: List[Violation]
    stated_n_from: int

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "id": self.theorem_id,
            "params": dict(self.params),
            "range": {
                "n_from": self.n_from,
                "n_to": self.n_to,
                "stated_n_from": self.stated_n_from,
            },
            "checked": self.checked,
            "violations": [v.as_dict() for v in self.violations],
            "status": self.status,
        }


class _Recorder:
    __slots__ = ("checked", "violations")

    def __init__(self):
        self.checked = 0
        self.violations: List[Violation] = []

    def check(self, point: Dict[str, object], lhs: int, op: str, rhs: int) -> None:
        self.checked += 1
        if not _holds(lhs, op, rhs):
            self.violations.append(Violation(point, lhs, rhs))

    def check_rows(
        self,
        make_point: Callable[[int], Dict[str, object]],
        idx: Sequence[int],
        lhs_seq: Sequence[int],
        op: str,
        rhs_seq: Sequence[int],
    ) -> None:
        """Check lhs_seq[i] op rhs_seq[i] at the points make_point(idx[i]),
        in order; the point dict is built only for a violation."""
        self.checked += len(idx)
        for i, lhs, rhs in zip(idx, lhs_seq, rhs_seq, strict=True):
            if not _holds(lhs, op, rhs):
                self.violations.append(Violation(make_point(i), lhs, rhs))


class VerifyContext:
    """Caches the tables and series shared by the theorem scans.

    Each entry keeps the largest object built so far, under the n it was
    built for; requests covered by it are served from the cache, larger
    requests replace it.
    """

    def __init__(self):
        self._memo: Dict[Hashable, Tuple[int, Any]] = {}

    def _cached(self, key: Hashable, n_max: int, build: Callable[[int], Any]) -> Any:
        entry = self._memo.get(key)
        if entry is None or entry[0] < n_max:
            entry = self._memo[key] = (n_max, build(n_max))
        return entry[1]

    def cranks(self, n_max: int) -> DistributionTable:
        return self._cached("cranks", n_max, statistics.crank_table)

    def ranks(self, n_max: int) -> DistributionTable:
        return self._cached("ranks", n_max, statistics.rank_table)

    # the cumulative entries are keyed on their table's n_max, so a table
    # rebuilt for a larger n is summed again on the next request
    def crank_cum(self, n_max: int) -> CumulativeTable:
        t = self.cranks(n_max)
        return self._cached("crank_cum", t.n_max, lambda _: cumulative(t))

    def rank_cum(self, n_max: int) -> CumulativeTable:
        t = self.ranks(n_max)
        return self._cached("rank_cum", t.n_max, lambda _: cumulative(t))

    def pvec(self, n_max: int) -> List[int]:
        return self._cached("pvec", n_max, statistics.partition_numbers)

    def ospt(self, n_max: int) -> List[int]:
        return self._cached(
            "ospt", n_max,
            lambda n: statistics.ospt(n, cranks=self.cranks(n), ranks=self.ranks(n)),
        )

    def crank_m0(self, n_max: int) -> List[int]:
        """M(0, 0..n_max) without building the full table."""
        return self._cached(
            "crank_m0", n_max, lambda n: statistics.crank_gf(0, n).coeffs()
        )

    def fam(self, family: str, k: int, order: int) -> List[int]:
        return self._cached(
            ("fam", family, k), order,
            lambda n: families.family_series(family, k, n).coeffs(),
        )


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    description: str
    stated_n_from: int
    n_base: int  # smallest n the scan may start from; verify clamps to it
    run: Callable[..., None]
    defaults: Dict[str, int]  # the grid: the scan's keyword defaults


REGISTRY: Dict[str, TheoremSpec] = {}


def _theorem(id: str, description: str, *, stated_n_from: int, n_base: int):
    """Register the decorated scan; its keyword defaults become the grid."""

    def register(run: Callable[..., None]) -> Callable[..., None]:
        grid = {
            name: param.default
            for name, param in inspect.signature(run).parameters.items()
            if param.default is not param.empty
        }
        REGISTRY[id] = TheoremSpec(id, description, stated_n_from, n_base, run, grid)
        return run

    return register


def _row_point(n: int, **extra: object) -> Callable[[int], Dict[str, object]]:
    """The point builder of a row scan: m -> {"n": n, "m": m, **extra}."""
    return lambda m: {"n": n, "m": m, **extra}


def _column_point(m: int) -> Callable[[int], Dict[str, object]]:
    """The point builder of a column scan: n -> {"n": n, "m": m}."""
    return lambda n: {"n": n, "m": m}


# --------------------------------------------------------------------------
# rank inequalities
# --------------------------------------------------------------------------


@_theorem("THM1.1", "rank counts weakly increase in n (with the top-m exception)",
          stated_n_from=12, n_base=1)
def _run_thm_1_1(ctx, rec, n_from, n_to):
    # m = n - 2 is deliberately absent: N(n-2, n) = 0 < 1 = N(n-2, n-1)
    t = ctx.ranks(n_to)
    for n in range(n_from, n_to + 1):
        for lo, hi in ((0, max(n - 2, 0)), (n - 1, n)):
            rec.check_rows(
                _row_point(n), range(lo, hi),
                t.row_slice(n, lo, hi), ">=", t.row_slice(n - 1, lo, hi),
            )


@_theorem("THM1.2", "rank counts weakly decrease in even steps of m",
          stated_n_from=0, n_base=0)
def _run_thm_1_2(ctx, rec, n_from, n_to):
    t = ctx.ranks(n_to)
    for n in range(n_from, n_to + 1):
        rec.check_rows(
            _row_point(n), range(0, n),
            t.row_slice(n, 0, n), ">=", t.row_slice(n, 2, n + 2),
        )


# --------------------------------------------------------------------------
# ospt bounds
# --------------------------------------------------------------------------


@_theorem("THM1.3a", "strict lower bound on 4*ospt(n)", stated_n_from=8, n_base=1)
def _run_thm_1_3a(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    ranks = ctx.ranks(n_to)
    m0 = ctx.crank_m0(n_to)
    for n in range(n_from, n_to + 1):
        lhs = 4 * o[n]
        rhs = p[n] + 2 * ranks.get(0, n) - m0[n]
        rec.check({"n": n}, lhs, ">", rhs)


@_theorem("THM1.3b", "strict upper bound on 4*ospt(n)", stated_n_from=7, n_base=1)
def _run_thm_1_3b(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    ranks = ctx.ranks(n_to)
    m0 = ctx.crank_m0(n_to)
    for n in range(n_from, n_to + 1):
        lhs = 4 * o[n]
        rhs = p[n] + 2 * ranks.get(0, n) - m0[n] + 2 * ranks.get(1, n)
        rec.check({"n": n}, lhs, "<", rhs)


@_theorem("THM1.3c", "ospt(n) below half the partition count",
          stated_n_from=3, n_base=1)
def _run_thm_1_3c(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    for n in range(n_from, n_to + 1):
        rec.check({"n": n}, 2 * o[n], "<", p[n])


# --------------------------------------------------------------------------
# crank monotonicity and unimodality
# --------------------------------------------------------------------------


@_theorem("THM1.6", "crank counts weakly increase in n for 0 <= m <= n-2",
          stated_n_from=14, n_base=1)
def _run_thm_1_6(ctx, rec, n_from, n_to):
    t = ctx.cranks(n_to)
    for n in range(n_from, n_to + 1):
        rec.check_rows(
            _row_point(n), range(0, n - 1),
            t.row_slice(n, 0, n - 1), ">=", t.row_slice(n - 1, 0, n - 1),
        )


@_theorem("THM1.7", "crank counts weakly decrease in m for 1 <= m <= n-1",
          stated_n_from=44, n_base=1)
def _run_thm_1_7(ctx, rec, n_from, n_to):
    t = ctx.cranks(n_to)
    for n in range(n_from, n_to + 1):
        rec.check_rows(
            _row_point(n), range(1, n),
            t.row_slice(n, 0, n - 1), ">=", t.row_slice(n, 1, n),
        )


@_theorem("COR1.8", "crank row is unimodal over the window |m| <= n-1",
          stated_n_from=44, n_base=1)
def _run_cor_1_8(ctx, rec, n_from, n_to):
    # two formulations that must agree: the literal window scan and the
    # mirror reduction to nonnegative m
    t = ctx.cranks(n_to)
    for n in range(n_from, n_to + 1):
        window = _row_point(n, form="window")
        rec.check_rows(
            window, range(-(n - 2), 1),
            t.row_slice(n, -(n - 2), 1), ">=", t.row_slice(n, -(n - 1), 0),
        )
        # M(m, n) against M(m + 1, n) for 0 <= m <= n - 2, read once for
        # both the window's right half and the mirror
        head, tail = t.row_slice(n, 0, n - 1), t.row_slice(n, 1, n)
        rec.check_rows(window, range(0, n - 1), head, ">=", tail)
        rec.check_rows(
            _row_point(n, form="mirror"), range(1, n),
            head, ">=", tail,
        )


@_theorem("THM1.9", "partition count dominates 21 times the zero-crank count",
          stated_n_from=39, n_base=0)
def _run_thm_1_9(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    m0 = ctx.crank_m0(n_to)
    for n in range(n_from, n_to + 1):
        rec.check({"n": n}, p[n], ">=", 21 * m0[n])


# --------------------------------------------------------------------------
# family monotonicity
# --------------------------------------------------------------------------


@_theorem("THM1.10", "bounded-part partition counts weakly increase for k >= 5",
          stated_n_from=14, n_base=1)
def _run_thm_1_10(ctx, rec, n_from, n_to, k_max=25):
    for k in range(5, k_max + 1):
        c = ctx.fam("p", k, n_to)
        for n in range(n_from, n_to + 1):
            rec.check({"n": n, "k": k}, c[n], ">=", c[n - 1])


@_theorem("THM1.11", "pair counts weakly increase for k >= 3 (off (k,n)=(3,7))",
          stated_n_from=2, n_base=1)
def _run_thm_1_11(ctx, rec, n_from, n_to, k_max=25):
    # (k, n) = (3, 7) is excluded: pp_3(7) = 8 < 9 = pp_3(6) is the one
    # genuine exception (the k = 3 first difference is -1 exactly there),
    # so the blanket k >= 3, n >= 2 statement holds everywhere else
    for k in range(3, k_max + 1):
        c = ctx.fam("pp", k, n_to)
        for n in range(n_from, n_to + 1):
            if k == 3 and n == 7:
                continue
            rec.check({"n": n, "k": k}, c[n], ">=", c[n - 1])


# --------------------------------------------------------------------------
# the difference families d, t, f and the small-k closed forms
# --------------------------------------------------------------------------


@_theorem("THM2.4", "all clauses for the first-difference family d",
          stated_n_from=0, n_base=0)
def _run_thm_2_4(ctx, rec, n_from, n_to, k_max=25):
    d2 = ctx.fam("d", 2, n_to)
    d3 = ctx.fam("d", 3, n_to)
    d4 = ctx.fam("d", 4, n_to)
    for n in range(n_from, n_to + 1):
        rec.check({"n": n, "clause": "d2"}, d2[n], "==", 1 if n % 2 == 0 else -1)
        r6 = n % 6
        want3 = 1 if r6 in (0, 2) else (-1 if r6 == 1 else 0)
        rec.check({"n": n, "clause": "d3"}, d3[n], "==", want3)
        if n % 2 == 0:
            rec.check({"n": n, "clause": "d4-even"}, d4[n], ">=", 0)
        elif n % 12 == 3:
            rec.check({"n": n, "clause": "d4-odd"}, d4[n], "==", -(n // 12))
        else:
            rec.check({"n": n, "clause": "d4-odd"}, d4[n], "==", -((n + 11) // 12))
    d5 = ctx.fam("d", 5, n_to)
    for n in range(max(n_from, 2), n_to + 1):
        rec.check({"n": n, "clause": "d5"}, d5[n], ">=", 0)
        if n >= 14:
            rec.check({"n": n, "clause": "d5-pos"}, d5[n], ">=", 1)
    d6 = ctx.fam("d", 6, n_to)
    for n in range(max(n_from, 14), n_to + 1):
        rec.check({"n": n, "clause": "d6"}, d6[n], ">=", 0)
    for k in range(7, k_max + 1):
        dk = ctx.fam("d", k, n_to)
        for n in range(max(n_from, 2), n_to + 1):
            rec.check({"n": n, "k": k, "clause": "dk"}, dk[n], ">=", 0)
        if k + 2 <= n_to:
            rec.check({"n": k + 2, "k": k, "clause": "dk-pos"}, dk[k + 2], ">=", 1)
        if 2 * k + 7 <= n_to:
            rec.check(
                {"n": 2 * k + 7, "k": k, "clause": "dk-pos"}, dk[2 * k + 7], ">=", 1
            )


@_theorem("LEM2.3", "the majorant family t is nonnegative (positive off k = 5)",
          stated_n_from=0, n_base=0)
def _run_lem_2_3(ctx, rec, n_from, n_to, k_max=20):
    for k in range(4, k_max + 1):
        t = ctx.fam("t", k, n_to)
        for n in range(n_from, n_to + 1):
            rec.check({"n": n, "k": k}, t[n], ">=", 0)
            if n >= 14 and k != 5:
                rec.check({"n": n, "k": k, "clause": "pos"}, t[n], ">=", 1)


@_theorem("COR2.2", "bounded-part counts are positive, eventually >= floor(n/6)",
          stated_n_from=2, n_base=2)
def _run_cor_2_2(ctx, rec, n_from, n_to, k_max=15):
    for k in range(3, k_max + 1):
        c = ctx.fam("p", k, n_to)
        for n in range(n_from, n_to + 1):
            rec.check({"n": n, "k": k}, c[n], ">=", 1)
            if n >= 12:
                rec.check({"n": n, "k": k, "clause": "floor"}, c[n], ">=", n // 6)


@_theorem("THM3.1", "all clauses for the first-difference family f",
          stated_n_from=0, n_base=0)
def _run_thm_3_1(ctx, rec, n_from, n_to, k_max=20):
    for k in range(2, k_max + 1):
        c = ctx.fam("f", k, n_to)
        if n_from <= 0 <= n_to:
            rec.check({"n": 0, "k": k, "clause": "init"}, c[0], "==", 1)
        if n_from <= 1 <= n_to:
            rec.check({"n": 1, "k": k, "clause": "init"}, c[1], "==", -1)
    f2 = ctx.fam("f", 2, n_to)
    for n in range(n_from, n_to + 1):
        if n % 2 == 0:
            rec.check({"n": n, "k": 2, "clause": "even"}, f2[n], ">=", 0)
        else:
            rec.check(
                {"n": n, "k": 2, "clause": "odd"}, f2[n], "==", -((n + 5) // 6)
            )
    f3 = ctx.fam("f", 3, n_to)
    for n in range(max(n_from, 2), n_to + 1):
        if n != 7:
            rec.check({"n": n, "k": 3}, f3[n], ">=", 0)
        if n % 2 == 1 and n >= 17:
            rec.check(
                {"n": n, "k": 3, "clause": "growth"}, 2 * f3[n], ">=", n - 15
            )
    for k in range(4, k_max + 1):
        c = ctx.fam("f", k, n_to)
        for n in range(max(n_from, 2), n_to + 1):
            rec.check({"n": n, "k": k}, c[n], ">=", 0)
        if 2 * k + 7 <= n_to:
            rec.check(
                {"n": 2 * k + 7, "k": k, "clause": "pos"}, c[2 * k + 7], ">=", 1
            )


@_theorem("EQ4.4", "crank increment dominated from below by d and p terms",
          stated_n_from=1, n_base=1)
def _run_eq_4_4(ctx, rec, n_from, n_to, m_max=15):
    t = ctx.cranks(n_to)
    ns = range(n_from, n_to + 1)
    for m in range(2, m_max + 1):
        d = ctx.fam("d", m, n_to)
        p = ctx.fam("p", m + 1, n_to)
        col = t.column_slice(m, n_from - 1, n_to + 1)  # M(m, n_from - 1..n_to)
        rhs = [
            (d[n - m] if n - m >= 0 else 0)
            + (p[n - 2 * m - 3] if n - 2 * m - 3 >= 0 else 0)
            for n in ns
        ]
        rec.check_rows(_column_point(m), ns, list(map(sub, col[1:], col)), ">=", rhs)


# --------------------------------------------------------------------------
# pair-count families g, h
# --------------------------------------------------------------------------

_G_VS_H_THRESHOLD = {1: 20, 2: 51, 3: 67}


@_theorem("THM9.1", "pair counts dominate 21 times the restricted pair counts",
          stated_n_from=0, n_base=0)
def _run_thm_9_1(ctx, rec, n_from, n_to, k_max=8):
    for k in range(1, k_max + 1):
        g = ctx.fam("g", k, n_to)
        h = ctx.fam("h", k, n_to)
        lo = max(n_from, _G_VS_H_THRESHOLD.get(k, 0))
        for n in range(lo, n_to + 1):
            rec.check({"n": n, "k": k}, g[n], ">=", 21 * h[n])


@_theorem("LEM9.3", "monotonicity of g and h plus the k^2/n^2 cross bound",
          stated_n_from=0, n_base=0)
def _run_lem_9_3(ctx, rec, n_from, n_to, k_max=8):
    for k in range(1, k_max + 1):
        g = ctx.fam("g", k, n_to)
        h = ctx.fam("h", k, n_to)
        for n in range(max(n_from, 1), n_to + 1):
            rec.check({"n": n, "k": k, "clause": "g-mono"}, g[n], ">=", g[n - 1])
            rec.check({"n": n, "k": k, "clause": "h-mono"}, h[n], ">=", h[n - 1])
        if k >= 2:
            hprev = ctx.fam("h", k - 1, n_to)
            for n in range(n_from, n_to + 1):
                rec.check(
                    {"n": n, "k": k, "clause": "cross"},
                    k * k * h[n], "<=", n * n * hprev[n],
                )


_GBOUND_CLAUSES = (
    # (family, k, scale, power, op, n_from)
    ("g", 2, 24, 3, ">=", 0),
    ("g", 3, 4320, 5, ">=", 3),
    ("g", 4, 2903040, 7, ">=", 8),
    ("h", 2, 4, 2, "<=", 0),
    ("h", 3, 36, 4, "<=", 0),
)


@_theorem("GBOUNDS", "integer-exact polynomial bounds on g2, g3, g4, h2, h3",
          stated_n_from=0, n_base=0)
def _run_gbounds(ctx, rec, n_from, n_to):
    for fam_name, k, scale, power, op, lo_stated in _GBOUND_CLAUSES:
        c = ctx.fam(fam_name, k, n_to)
        for n in range(max(n_from, lo_stated), n_to + 1):
            rec.check(
                {"n": n, "k": k, "clause": f"{fam_name}{k}"},
                scale * c[n], op, n**power,
            )


# --------------------------------------------------------------------------
# cumulative rank/crank comparisons and the ospt chain
# --------------------------------------------------------------------------


def _cum_row(t: DistributionTable, n: int, m_lo: int, m_hi: int) -> List[int]:
    """``cumulative(t).le(m, n)`` for m_lo <= m < m_hi, where -n <= m_lo:
    row n prefix-summed from m = -n, below which neither table stores a count."""
    return list(accumulate(t.row_slice(n, -n, m_hi)))[n + m_lo :]


@_theorem("EQ9.5", "cumulative crank mass below cumulative rank mass (m <= 0)",
          stated_n_from=1, n_base=1)
def _run_eq_9_5(ctx, rec, n_from, n_to):
    cranks = ctx.cranks(n_to)
    ranks = ctx.ranks(n_to)
    for n in range(n_from, n_to + 1):
        rec.check_rows(
            _row_point(n), range(-n, 1),
            _cum_row(cranks, n, -n, 1), "<=", _cum_row(ranks, n, -n + 1, 2),
        )


@_theorem("EQ9.6", "cumulative rank mass below cumulative crank mass (m >= 0)",
          stated_n_from=1, n_base=1)
def _run_eq_9_6(ctx, rec, n_from, n_to):
    cranks = ctx.cranks(n_to)
    ranks = ctx.ranks(n_to)
    for n in range(n_from, n_to + 1):
        rec.check_rows(
            _row_point(n), range(0, n + 1),
            _cum_row(ranks, n, -1, n), "<=", _cum_row(cranks, n, 0, n + 1),
        )


@_theorem("EQ9.12", "two central rank counts within four times the zero-crank count",
          stated_n_from=44, n_base=1)
def _run_eq_9_12(ctx, rec, n_from, n_to):
    ranks = ctx.ranks(n_to)
    m0 = ctx.crank_m0(n_to)
    for n in range(n_from, n_to + 1):
        lhs = ranks.get(0, n) + ranks.get(1, n)
        rec.check({"n": n}, lhs, "<=", 4 * m0[n])


@_theorem("CONJ1.4", "ospt(n) below a third of the partition count",
          stated_n_from=10, n_base=1)
def _run_conj_1_4(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    for n in range(n_from, n_to + 1):
        rec.check({"n": n}, 3 * o[n], "<", p[n])


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

SUITE_ORDER = tuple(REGISTRY)


def verify(
    theorem_id: str,
    n_to: int,
    overrides: Optional[Dict[str, int]] = None,
    ctx: Optional[VerifyContext] = None,
) -> VerificationReport:
    """Scan one theorem over [n_from, n_to] and report every violation.

    ``overrides`` may carry ``n_from`` plus any of the theorem's grid
    parameters (``k_max``, ``m_max``).  Defaults are the stated ranges.
    """
    if theorem_id not in REGISTRY:
        raise UnknownTheorem(theorem_id)
    spec = REGISTRY[theorem_id]
    overrides = dict(overrides or {})
    n_from = overrides.pop("n_from", spec.stated_n_from)
    if n_from < spec.n_base:
        n_from = spec.n_base
    params = dict(spec.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise RangeError(f"{theorem_id} does not take override {key!r}")
        params[key] = value
    if n_to < n_from:
        raise RangeError(f"n_to={n_to} is below the scan start {n_from}")
    if ctx is None:
        ctx = VerifyContext()
    rec = _Recorder()
    spec.run(ctx, rec, n_from, n_to, **params)
    if rec.checked == 0:
        raise RangeError(
            f"{theorem_id} checks no point for n in [{n_from}, {n_to}] with {params}"
        )
    return VerificationReport(
        theorem_id=theorem_id,
        n_from=n_from,
        n_to=n_to,
        params=params,
        checked=rec.checked,
        violations=rec.violations,
        stated_n_from=spec.stated_n_from,
    )


def verify_suite(
    n_to: int, ctx: Optional[VerifyContext] = None
) -> List[VerificationReport]:
    """Run every registered theorem at its default range capped by n_to."""
    need = max(spec.stated_n_from for spec in REGISTRY.values())
    if n_to < need:
        raise RangeError(f"the full suite needs n_to >= {need}, got {n_to}")
    if ctx is None:
        ctx = VerifyContext()
    return [verify(tid, n_to, ctx=ctx) for tid in SUITE_ORDER]


def find_threshold(
    theorem_id: str, n_to: int, ctx: Optional[VerifyContext] = None
) -> Optional[int]:
    """Least n0 such that the theorem holds for all n0 <= n <= n_to.

    Scans from the theorem's base range, ignoring the stated threshold.
    Returns None when even n = n_to has a violation.
    """
    if theorem_id not in REGISTRY:
        raise UnknownTheorem(theorem_id)
    if n_to < 2:
        raise RangeError("threshold search needs n_to >= 2")
    spec = REGISTRY[theorem_id]
    report = verify(theorem_id, n_to, overrides={"n_from": spec.n_base}, ctx=ctx)
    if not report.violations:
        return spec.n_base
    worst = max(int(v.point["n"]) for v in report.violations)
    if worst >= n_to:
        return None
    return worst + 1


def stated_threshold(theorem_id: str) -> int:
    if theorem_id not in REGISTRY:
        raise UnknownTheorem(theorem_id)
    return REGISTRY[theorem_id].stated_n_from


def list_theorems() -> List[str]:
    return list(SUITE_ORDER)
