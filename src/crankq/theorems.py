"""Exhaustive inequality scans with machine-readable reports.

Each theorem is a ``_run_*`` scan over its quantifier range, registered
by the ``@_theorem`` decorator above it; the scan's keyword defaults are
the theorem's grid (``k_max``, ``m_max``).  The default n-range starts at
the threshold from which the statement is claimed to hold; callers may
widen it (e.g. to locate the empirical threshold) or narrow it.  Every
comparison is exact integer arithmetic; rational bounds are
cross-multiplied, never floated.

Every comparison goes through one funnel, ``_holds_rows(lhs_seq, op,
rhs_seq)``, which compares two equal-length sequences at once and returns
the positions where the comparison fails.  ``_Recorder.check_rows`` sends
a whole run of points through it and builds a point dict and a
:class:`Violation` only at a failing position; ``_Recorder.check_clauses``
does so for clauses that share one index (``n``) and reports their
violations in the order of the per-point loop that checks them in turn;
``_Recorder.check`` sends one point, as a run of length one.

The two-dimensional scans (THM1.1, THM1.2, THM1.6, THM1.7, COR1.8,
EQ9.5, EQ9.6) build no table.  Each is a row scan, a plain function of
the record and one :class:`_Window` (p(n), rows n and n - 1), which one
streamed pass, :meth:`VerifyContext.stream`, calls once for every n in
its range.  The window reads the right halves (m >= 0) of the crank and
rank rows, with their tail sums tails[m] = sum_{j >= m} counts(j, n)
that the sparse forms in :mod:`crankq.statistics` compute on the way,
from one row source per statistic, which makes a row from one p(0..N)
when a scan first reads it.  So a pass makes only the rows its scans
read: THM1.1 and THM1.2 read rank rows, THM1.6, THM1.7 and COR1.8 crank
rows, EQ9.5 and EQ9.6 both, and only THM1.1 and THM1.6 read row
n_from - 1.  No row is mirrored: by
symmetry a scan reads M(m, n) at m < 0 as M(-m, n), and the cumulative
scans EQ9.5 and EQ9.6 read le(m, n) as tails[-m] for m <= 0 and as
p(n) - tails[m + 1] for m >= 0, with no prefix sum; where both sides are
p(n) less a tail sum (EQ9.6 at m >= 1), the two tail sums are compared
the other way round and p(n) is subtracted only at a violation.  THM1.7
and all three point sets of COR1.8 (both halves of the window and the
mirror) are the row's descents M(m, n) >= M(m + 1, n); the window
compares them once, and each scan maps the failing positions back to its
own m in its own order.
:func:`verify` and :func:`verify_suite` share one runner, ``_run``,
which sends the row scans among its jobs to one pass, runs the other
scans, and returns the reports in job order.  Each row source keeps only
its two highest rows, so memory is O(N) big ints, where the dense tables
held O(N^2).

The one-dimensional scans read p, ospt, N(0, .), N(1, .) and M(0, .),
cached by :class:`VerifyContext`, and build the rest as they go: each
scan over k steps a :func:`families.ladder` of its own, and EQ4.4 builds
one crank column M(m, .) per m, so no family list or column outlives its
step.  No row is made for them.  Each compares whole runs of n per
clause (and per k or m) through the funnel.

Theorem ids are stable public strings consumed by the CLI and the
acceptance suite.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from operator import sub
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple,
)

from . import families, statistics
from .errors import RangeError, UnknownTheorem
from .tables import slice_row


_COMPARE: Dict[str, Callable[[int, int], bool]] = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


def _holds_rows(lhs_seq: Sequence[int], op: str, rhs_seq: Sequence[int]) -> List[int]:
    """The positions i at which lhs_seq[i] op rhs_seq[i] fails, in order.

    The single comparison funnel: every check of every scan goes through
    it, and tests falsify it to prove the harness cannot pass vacuously."""
    compare = _COMPARE.get(op)
    if compare is None:
        raise ValueError(f"unknown comparison {op!r}")
    if len(lhs_seq) != len(rhs_seq):
        raise ValueError(
            f"{len(lhs_seq)} left operands against {len(rhs_seq)} right ones"
        )
    if all(map(compare, lhs_seq, rhs_seq)):
        return []
    return [i for i, ok in enumerate(map(compare, lhs_seq, rhs_seq)) if not ok]


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
    """One scan's record: the number of points checked and a
    :class:`Violation` for each point that failed, in scan order.  Every
    comparison goes through :func:`_holds_rows`; a point dict is built only
    where it reports a failure."""

    __slots__ = ("checked", "violations")

    def __init__(self):
        self.checked = 0
        self.violations: List[Violation] = []

    def check(self, point: Dict[str, object], lhs: int, op: str, rhs: int) -> None:
        """Check lhs op rhs at one point."""
        self.checked += 1
        if _holds_rows((lhs,), op, (rhs,)):
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
        in order, with one call to the funnel."""
        fails = _holds_rows(lhs_seq, op, rhs_seq)
        self.record(make_point, idx, lhs_seq, rhs_seq, fails)

    def check_clauses(self, *clauses: _Clause) -> None:
        """Check each clause (make_point, idx, lhs_seq, op, rhs_seq) with one
        call to the funnel, where every idx rises; the violations come in
        the order of a loop over the index values that checks the clauses
        holding each value in turn."""
        found = []
        for c, (make_point, idx, lhs_seq, op, rhs_seq) in enumerate(clauses):
            self._count(idx, lhs_seq)
            found += [(idx[i], c, i) for i in _holds_rows(lhs_seq, op, rhs_seq)]
        for value, c, i in sorted(found):
            make_point, _, lhs_seq, _, rhs_seq = clauses[c]
            self.violations.append(Violation(make_point(value), lhs_seq[i], rhs_seq[i]))

    def record(
        self,
        make_point: Callable[[int], Dict[str, object]],
        idx: Sequence[int],
        lhs_seq: Sequence[int],
        rhs_seq: Sequence[int],
        fails: Sequence[int],
    ) -> None:
        """Count the points make_point(idx[i]) as checked, where ``fails``
        holds the positions i at which a comparison of lhs_seq[i] against
        rhs_seq[i] failed, in the order the violations are to be reported;
        lets scans that make the same comparison share one funnel call."""
        self._count(idx, lhs_seq)
        self.violations += [
            Violation(make_point(idx[i]), lhs_seq[i], rhs_seq[i]) for i in fails
        ]

    def _count(self, idx: Sequence[int], lhs_seq: Sequence[int]) -> None:
        if len(idx) != len(lhs_seq):
            raise ValueError(f"{len(idx)} points for {len(lhs_seq)} comparisons")
        self.checked += len(idx)


def _row_part(rows: str, back: int, part: int) -> property:
    """A window attribute: the half (part 0) or the tail sums (part 1) of
    row n - ``back`` from the window's row source ``rows``, on each read."""
    return property(lambda w: getattr(w, rows)(w.n - back)[part])


@dataclass
class _Window:
    """What a row scan is called with for one n: p(n), the right halves
    (m >= 0) of the crank and rank rows n and n - 1, and the tail sums
    tails[m] = sum_{j >= m} counts(j, n) of rows n.  Each is read from its
    statistic's row source on access, so a row no scan reads is not made."""

    n: int
    p: int
    crank_rows: Callable[[int], statistics._Row]
    rank_rows: Callable[[int], statistics._Row]

    crank = _row_part("crank_rows", 0, 0)
    crank_tails = _row_part("crank_rows", 0, 1)
    crank_prev = _row_part("crank_rows", 1, 0)
    rank = _row_part("rank_rows", 0, 0)
    rank_tails = _row_part("rank_rows", 0, 1)
    rank_prev = _row_part("rank_rows", 1, 0)

    @cached_property
    def descents(self) -> Tuple[List[int], List[int], List[int]]:
        """(head, tail, fails): M(m, n) for 0 <= m <= n - 2 in head, M(m + 1,
        n) in tail, and the positions m at which head[m] >= tail[m] fails;
        compared once per row for every scan that reads them (n >= 1)."""
        n = self.n
        head, tail = self.crank[: n - 1], self.crank[1:n]
        return head, tail, _holds_rows(head, ">=", tail)


# One clause of _Recorder.check_clauses: (make_point, idx, lhs_seq, op, rhs_seq).
_Clause = Tuple[
    Callable[[int], Dict[str, object]], Sequence[int], Sequence[int], str, Sequence[int]
]

# A row scan as VerifyContext.stream takes it: (n_from, n_to, scan(window)).
_RowScan = Tuple[int, int, Callable[[_Window], None]]


class VerifyContext:
    """Caches p, ospt, N(0, .), N(1, .) and M(0, .) for the theorem scans,
    and feeds the row scans their rows (:meth:`stream`); it serves no
    dense table.  It keeps no family series: each family scan steps a
    :func:`families.ladder` of its own and drops it when it ends.

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

    def pvec(self, n_max: int) -> List[int]:
        return self._cached("pvec", n_max, statistics.partition_numbers)

    def stream(self, n_max: int, scans: Sequence[_RowScan]) -> None:
        """One pass over the crank and rank rows that ``scans`` read; no
        table is built.

        Each (n_from, n_to, scan) in ``scans`` is a row scan: it is called
        with the :class:`_Window` of n once for each n_from <= n <= n_to,
        in order.  Each statistic has one row source for the pass, so a row
        is made once, when a scan first reads it, and rows no scan reads are
        not made.
        """
        if not scans:
            return
        pvec = self.pvec(n_max)
        crank = statistics._row_source(statistics._crank_lead, pvec)
        rank = statistics._row_source(statistics._rank_lead, pvec)
        for n in range(min(n_from for n_from, _, _ in scans), n_max + 1):
            window = _Window(n, pvec[n], crank, rank)
            for n_from, n_to, scan in scans:
                if n_from <= n <= n_to:
                    scan(window)

    def ospt(self, n_max: int) -> List[int]:
        """ospt(0..n_max) (n_max >= 1), without a row."""
        return self._cached("ospt", n_max, statistics.ospt)

    def rank_m0(self, n_max: int) -> List[int]:
        """N(0, 0..n_max) without a row."""
        return self._cached(
            "rank_m0", n_max,
            lambda n: statistics._column(statistics._rank_lead, 0, self.pvec(n), n),
        )

    def rank_m1(self, n_max: int) -> List[int]:
        """N(1, 0..n_max) without a row."""
        return self._cached(
            "rank_m1", n_max,
            lambda n: statistics._column(statistics._rank_lead, 1, self.pvec(n), n),
        )

    def crank_m0(self, n_max: int) -> List[int]:
        """M(0, 0..n_max) without a row."""
        return self._cached(
            "crank_m0", n_max,
            lambda n: statistics._column(statistics._crank_lead, 0, self.pvec(n), n),
        )


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    description: str
    stated_n_from: int
    n_base: int  # smallest n the scan may start from; verify clamps to it
    run: Callable[..., Any]
    defaults: Dict[str, int]  # the grid: the scan's keyword defaults
    rows: bool  # run is a row scan, called per window by VerifyContext.stream


REGISTRY: Dict[str, TheoremSpec] = {}


def _theorem(id: str, description: str, *, stated_n_from: int, n_base: int, rows=False):
    """Register the decorated scan; its keyword defaults become the grid.
    A row scan (``rows``) is a function of the record and one window;
    any other scan is a function of the context, the record and its range."""

    def register(run: Callable[..., None]) -> Callable[..., None]:
        grid = {
            name: param.default
            for name, param in inspect.signature(run).parameters.items()
            if param.default is not param.empty
        }
        REGISTRY[id] = TheoremSpec(
            id, description, stated_n_from, n_base, run, grid, rows
        )
        return run

    return register


def _row_point(n: int, **extra: object) -> Callable[[int], Dict[str, object]]:
    """The point builder of a row scan: m -> {"n": n, "m": m, **extra}."""
    return lambda m: {"n": n, "m": m, **extra}


def _n_point(**extra: object) -> Callable[[int], Dict[str, object]]:
    """The point builder of a scan along n: n -> {"n": n, **extra}."""
    return lambda n: {"n": n, **extra}


def _rungs(
    rungs: Iterator[families.Rung], k_from: int, k_to: int
) -> Iterator[families.Rung]:
    """The rungs with k_from <= k <= k_to of a family ladder, in k order;
    the ladder is not stepped past k_to."""
    if k_from <= k_to:
        for k, c in rungs:
            if k >= k_from:
                yield k, c
            if k >= k_to:
                return


# --------------------------------------------------------------------------
# rank inequalities
# --------------------------------------------------------------------------


@_theorem("THM1.1", "rank counts weakly increase in n (with the top-m exception)",
          stated_n_from=12, n_base=1, rows=True)
def _run_thm_1_1(rec, w):
    # m = n - 2 is deliberately absent: N(n-2, n) = 0 < 1 = N(n-2, n-1)
    n = w.n
    for lo, hi in ((0, max(n - 2, 0)), (n - 1, n)):
        rec.check_rows(
            _row_point(n), range(lo, hi),
            w.rank[lo:hi], ">=", slice_row(w.rank_prev, 0, lo, hi),
        )


@_theorem("THM1.2", "rank counts weakly decrease in even steps of m",
          stated_n_from=0, n_base=0, rows=True)
def _run_thm_1_2(rec, w):
    n = w.n
    rec.check_rows(
        _row_point(n), range(0, n), w.rank[:n], ">=", slice_row(w.rank, 0, 2, n + 2)
    )


# --------------------------------------------------------------------------
# ospt bounds
# --------------------------------------------------------------------------


@_theorem("THM1.3a", "strict lower bound on 4*ospt(n)", stated_n_from=8, n_base=1)
def _run_thm_1_3a(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    n0 = ctx.rank_m0(n_to)
    m0 = ctx.crank_m0(n_to)
    ns = range(n_from, n_to + 1)
    rec.check_rows(
        _n_point(), ns,
        [4 * o[n] for n in ns], ">", [p[n] + 2 * n0[n] - m0[n] for n in ns],
    )


@_theorem("THM1.3b", "strict upper bound on 4*ospt(n)", stated_n_from=7, n_base=1)
def _run_thm_1_3b(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    n0, n1 = ctx.rank_m0(n_to), ctx.rank_m1(n_to)
    m0 = ctx.crank_m0(n_to)
    ns = range(n_from, n_to + 1)
    rec.check_rows(
        _n_point(), ns,
        [4 * o[n] for n in ns], "<",
        [p[n] + 2 * n0[n] - m0[n] + 2 * n1[n] for n in ns],
    )


@_theorem("THM1.3c", "ospt(n) below half the partition count",
          stated_n_from=3, n_base=1)
def _run_thm_1_3c(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    ns = range(n_from, n_to + 1)
    rec.check_rows(_n_point(), ns, [2 * o[n] for n in ns], "<", p[n_from : n_to + 1])


# --------------------------------------------------------------------------
# crank monotonicity and unimodality
# --------------------------------------------------------------------------


@_theorem("THM1.6", "crank counts weakly increase in n for 0 <= m <= n-2",
          stated_n_from=14, n_base=1, rows=True)
def _run_thm_1_6(rec, w):
    n = w.n
    rec.check_rows(
        _row_point(n), range(0, n - 1), w.crank[: n - 1], ">=", w.crank_prev[: n - 1]
    )


@_theorem("THM1.7", "crank counts weakly decrease in m for 1 <= m <= n-1",
          stated_n_from=44, n_base=1, rows=True)
def _run_thm_1_7(rec, w):
    # M(m - 1, n) >= M(m, n): the row's descents
    rec.record(_row_point(w.n), range(1, w.n), *w.descents)


@_theorem("COR1.8", "crank row is unimodal over the window |m| <= n-1",
          stated_n_from=44, n_base=1, rows=True)
def _run_cor_1_8(rec, w):
    # two formulations that must agree: the literal window scan and the
    # mirror reduction to nonnegative m.  By symmetry every point is one of
    # the row's descents M(j, n) >= M(j + 1, n), 0 <= j <= n - 2, read at
    # m = -j (the window's left half, m rising), m = j (its right half) and
    # m = j + 1 (the mirror)
    n = w.n
    head, tail, fails = w.descents
    window = _row_point(n, form="window")
    rec.record(window, range(0, -(n - 1), -1), head, tail, fails[::-1])
    rec.record(window, range(0, n - 1), head, tail, fails)
    rec.record(_row_point(n, form="mirror"), range(1, n), head, tail, fails)


@_theorem("THM1.9", "partition count dominates 21 times the zero-crank count",
          stated_n_from=39, n_base=0)
def _run_thm_1_9(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    m0 = ctx.crank_m0(n_to)
    ns = range(n_from, n_to + 1)
    rec.check_rows(_n_point(), ns, p[n_from : n_to + 1], ">=", [21 * m0[n] for n in ns])


# --------------------------------------------------------------------------
# family monotonicity
# --------------------------------------------------------------------------


@_theorem("THM1.10", "bounded-part partition counts weakly increase for k >= 5",
          stated_n_from=14, n_base=1)
def _run_thm_1_10(ctx, rec, n_from, n_to, k_max=25):
    ns = range(n_from, n_to + 1)
    for k, c in _rungs(families.ladder("p", n_to), 5, k_max):
        rec.check_rows(
            _n_point(k=k), ns, c[n_from : n_to + 1], ">=", c[n_from - 1 : n_to]
        )


@_theorem("THM1.11", "pair counts weakly increase for k >= 3 (off (k,n)=(3,7))",
          stated_n_from=2, n_base=1)
def _run_thm_1_11(ctx, rec, n_from, n_to, k_max=25):
    # (k, n) = (3, 7) is excluded: pp_3(7) = 8 < 9 = pp_3(6) is the one
    # genuine exception (the k = 3 first difference is -1 exactly there),
    # so the blanket k >= 3, n >= 2 statement holds everywhere else
    for k, c in _rungs(families.ladder("pp", n_to), 3, k_max):
        runs = ((n_from, 7), (8, n_to + 1)) if k == 3 else ((n_from, n_to + 1),)
        for lo, hi in runs:
            lo, hi = max(lo, n_from), min(hi, n_to + 1)
            rec.check_rows(
                _n_point(k=k), range(lo, hi), c[lo:hi], ">=", c[lo - 1 : hi - 1]
            )


# --------------------------------------------------------------------------
# the difference families d, t, f and the small-k closed forms
# --------------------------------------------------------------------------


@_theorem("THM2.4", "all clauses for the first-difference family d",
          stated_n_from=0, n_base=0)
def _run_thm_2_4(ctx, rec, n_from, n_to, k_max=25):
    # d_2..d_6 have clauses of their own, whatever k_max is; d_7 on are
    # the same clauses for each k
    rungs = families.ladder("d", n_to)
    (_, d2), (_, d3), (_, d4) = islice(rungs, 3)
    ns = range(n_from, n_to + 1)
    even = range(n_from + n_from % 2, n_to + 1, 2)
    odd = range(n_from | 1, n_to + 1, 2)
    rec.check_clauses(
        (_n_point(clause="d2"), ns, d2[n_from : n_to + 1], "==",
         [1 if n % 2 == 0 else -1 for n in ns]),
        (_n_point(clause="d3"), ns, d3[n_from : n_to + 1], "==",
         [1 if n % 6 in (0, 2) else (-1 if n % 6 == 1 else 0) for n in ns]),
        (_n_point(clause="d4-even"), even, d4[even.start : n_to + 1 : 2], ">=",
         [0] * len(even)),
        (_n_point(clause="d4-odd"), odd, d4[odd.start : n_to + 1 : 2], "==",
         [-(n // 12) if n % 12 == 3 else -((n + 11) // 12) for n in odd]),
    )
    _, d5 = next(rungs)
    from2, from14 = range(max(n_from, 2), n_to + 1), range(max(n_from, 14), n_to + 1)
    rec.check_clauses(
        (_n_point(clause="d5"), from2, d5[from2.start : n_to + 1], ">=",
         [0] * len(from2)),
        (_n_point(clause="d5-pos"), from14, d5[from14.start : n_to + 1], ">=",
         [1] * len(from14)),
    )
    _, d6 = next(rungs)
    rec.check_rows(
        _n_point(clause="d6"), from14, d6[from14.start : n_to + 1], ">=",
        [0] * len(from14),
    )
    for k, dk in _rungs(rungs, 7, k_max):
        rec.check_rows(
            _n_point(k=k, clause="dk"), from2, dk[from2.start : n_to + 1], ">=",
            [0] * len(from2),
        )
        for n in (k + 2, 2 * k + 7):
            if n_from <= n <= n_to:
                rec.check({"n": n, "k": k, "clause": "dk-pos"}, dk[n], ">=", 1)


@_theorem("LEM2.3", "the majorant family t is nonnegative (positive off k = 5)",
          stated_n_from=0, n_base=0)
def _run_lem_2_3(ctx, rec, n_from, n_to, k_max=20):
    ns = range(n_from, n_to + 1)
    for k, t in _rungs(families.ladder("t", n_to), 4, k_max):
        pos = range(max(n_from, 14) if k != 5 else n_to + 1, n_to + 1)
        rec.check_clauses(
            (_n_point(k=k), ns, t[n_from : n_to + 1], ">=", [0] * len(ns)),
            (_n_point(k=k, clause="pos"), pos, t[pos.start : n_to + 1], ">=",
             [1] * len(pos)),
        )


@_theorem("COR2.2", "bounded-part counts are positive, eventually >= floor(n/6)",
          stated_n_from=2, n_base=2)
def _run_cor_2_2(ctx, rec, n_from, n_to, k_max=15):
    ns, from12 = range(n_from, n_to + 1), range(max(n_from, 12), n_to + 1)
    for k, c in _rungs(families.ladder("p", n_to), 3, k_max):
        rec.check_clauses(
            (_n_point(k=k), ns, c[n_from : n_to + 1], ">=", [1] * len(ns)),
            (_n_point(k=k, clause="floor"), from12, c[from12.start : n_to + 1], ">=",
             [n // 6 for n in from12]),
        )


@_theorem("THM3.1", "all clauses for the first-difference family f",
          stated_n_from=0, n_base=0)
def _run_thm_3_1(ctx, rec, n_from, n_to, k_max=20):
    # f_k(0) and f_k(1) for every k first, off a ladder at order 1
    for k, c in _rungs(families.ladder("f", 1), 2, k_max):
        if n_from <= 0 <= n_to:
            rec.check({"n": 0, "k": k, "clause": "init"}, c[0], "==", 1)
        if n_from <= 1 <= n_to:
            rec.check({"n": 1, "k": k, "clause": "init"}, c[1], "==", -1)
    rungs = families.ladder("f", n_to)
    _, f2 = next(rungs)
    even = range(n_from + n_from % 2, n_to + 1, 2)
    odd = range(n_from | 1, n_to + 1, 2)
    rec.check_clauses(
        (_n_point(k=2, clause="even"), even, f2[even.start : n_to + 1 : 2], ">=",
         [0] * len(even)),
        (_n_point(k=2, clause="odd"), odd, f2[odd.start : n_to + 1 : 2], "==",
         [-((n + 5) // 6) for n in odd]),
    )
    _, f3 = next(rungs)
    from2 = range(max(n_from, 2), n_to + 1)
    off7 = [n for n in from2 if n != 7]
    growth = range(max(n_from, 17) | 1, n_to + 1, 2)
    rec.check_clauses(
        (_n_point(k=3), off7, [f3[n] for n in off7], ">=", [0] * len(off7)),
        (_n_point(k=3, clause="growth"), growth, [2 * f3[n] for n in growth], ">=",
         [n - 15 for n in growth]),
    )
    for k, c in _rungs(rungs, 4, k_max):
        rec.check_rows(
            _n_point(k=k), from2, c[from2.start : n_to + 1], ">=", [0] * len(from2)
        )
        if n_from <= 2 * k + 7 <= n_to:
            rec.check({"n": 2 * k + 7, "k": k, "clause": "pos"}, c[2 * k + 7], ">=", 1)


@_theorem("EQ4.4", "crank increment dominated from below by d and p terms",
          stated_n_from=1, n_base=1)
def _run_eq_4_4(ctx, rec, n_from, n_to, m_max=15):
    # one crank column M(m, .) at a time, dropped at the next m as the
    # d_m and p_{m+1} rungs are
    pvec = ctx.pvec(n_to)
    ns = range(n_from, n_to + 1)
    d_rungs = _rungs(families.ladder("d", n_to), 2, m_max)
    p_rungs = _rungs(families.ladder("p", n_to), 3, m_max + 1)
    for (m, d), (_, p) in zip(d_rungs, p_rungs):
        col = statistics._column(statistics._crank_lead, m, pvec, n_to)
        rhs = [
            (d[n - m] if n - m >= 0 else 0)
            + (p[n - 2 * m - 3] if n - 2 * m - 3 >= 0 else 0)
            for n in ns
        ]
        rec.check_rows(
            _n_point(m=m), ns,
            list(map(sub, col[n_from:], col[n_from - 1 : n_to])), ">=", rhs,
        )


# --------------------------------------------------------------------------
# pair-count families g, h
# --------------------------------------------------------------------------

_G_VS_H_THRESHOLD = {1: 20, 2: 51, 3: 67}


@_theorem("THM9.1", "pair counts dominate 21 times the restricted pair counts",
          stated_n_from=0, n_base=0)
def _run_thm_9_1(ctx, rec, n_from, n_to, k_max=8):
    g_rungs = _rungs(families.ladder("g", n_to), 1, k_max)
    h_rungs = _rungs(families.ladder("h", n_to), 1, k_max)
    for (k, g), (_, h) in zip(g_rungs, h_rungs):
        lo = max(n_from, _G_VS_H_THRESHOLD.get(k, 0))
        rec.check_rows(
            _n_point(k=k), range(lo, n_to + 1),
            g[lo : n_to + 1], ">=", [21 * x for x in h[lo : n_to + 1]],
        )


@_theorem("LEM9.3", "monotonicity of g and h plus the k^2/n^2 cross bound",
          stated_n_from=0, n_base=0)
def _run_lem_9_3(ctx, rec, n_from, n_to, k_max=8):
    ns = range(n_from, n_to + 1)
    lo = max(n_from, 1)
    g_rungs = _rungs(families.ladder("g", n_to), 1, k_max)
    h_rungs = _rungs(families.ladder("h", n_to), 1, k_max)
    for (k, g), (_, h) in zip(g_rungs, h_rungs):
        rec.check_clauses(
            (_n_point(k=k, clause="g-mono"), range(lo, n_to + 1),
             g[lo : n_to + 1], ">=", g[lo - 1 : n_to]),
            (_n_point(k=k, clause="h-mono"), range(lo, n_to + 1),
             h[lo : n_to + 1], ">=", h[lo - 1 : n_to]),
        )
        if k >= 2:
            rec.check_rows(
                _n_point(k=k, clause="cross"), ns,
                [k * k * h[n] for n in ns], "<=", [n * n * hprev[n] for n in ns],
            )
        hprev = h


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
        c = families.family_series(fam_name, k, n_to).coeffs()
        ns = range(max(n_from, lo_stated), n_to + 1)
        rec.check_rows(
            _n_point(k=k, clause=f"{fam_name}{k}"), ns,
            [scale * c[n] for n in ns], op, [n**power for n in ns],
        )


# --------------------------------------------------------------------------
# cumulative rank/crank comparisons and the ospt chain
# --------------------------------------------------------------------------


def _le_row(tails: List[int], p: int, m_lo: int, m_hi: int) -> List[int]:
    """``cumulative(t).le(m, n)`` for m_lo <= m < m_hi (m_lo <= 0 < m_hi),
    from the tail sums of row n of a table t and p(n), the row's mass: by
    symmetry le(m, n) is tails[-m] for m <= 0 and p(n) - tails[m + 1] for
    m >= 0, with tails zero past the row."""
    left = slice_row(tails, 0, 0, 1 - m_lo)[::-1]
    return left + list(map(p.__sub__, slice_row(tails, 0, 2, m_hi + 1)))


@_theorem("EQ9.5", "cumulative crank mass below cumulative rank mass (m <= 0)",
          stated_n_from=1, n_base=1, rows=True)
def _run_eq_9_5(rec, w):
    n, p = w.n, w.p
    rec.check_rows(
        _row_point(n), range(-n, 1),
        _le_row(w.crank_tails, p, -n, 1), "<=", _le_row(w.rank_tails, p, -n + 1, 2),
    )


@_theorem("EQ9.6", "cumulative rank mass below cumulative crank mass (m >= 0)",
          stated_n_from=1, n_base=1, rows=True)
def _run_eq_9_6(rec, w):
    # rank le(m - 1, n) <= crank le(m, n) for m = 0..n.  At m = 0 that is
    # rank tails[1] <= crank tails[0]; at m >= 1 both sides are p(n) less a
    # tail sum, and p - a <= p - b is b <= a, so the tails are compared with
    # the sides swapped and p(n) is subtracted only at a violation.
    n, p = w.n, w.p
    rank, crank = w.rank_tails, w.crank_tails
    lhs = slice_row(rank, 0, 1, 2) + slice_row(crank, 0, 2, n + 2)
    rhs = crank[:1] + slice_row(rank, 0, 1, n + 1)
    fails = _holds_rows(lhs, "<=", rhs)
    for i in fails:
        if i:
            lhs[i], rhs[i] = p - rhs[i], p - lhs[i]
    rec.record(_row_point(n), range(0, n + 1), lhs, rhs, fails)


@_theorem("EQ9.12", "two central rank counts within four times the zero-crank count",
          stated_n_from=44, n_base=1)
def _run_eq_9_12(ctx, rec, n_from, n_to):
    n0, n1 = ctx.rank_m0(n_to), ctx.rank_m1(n_to)
    m0 = ctx.crank_m0(n_to)
    ns = range(n_from, n_to + 1)
    rec.check_rows(
        _n_point(), ns, [n0[n] + n1[n] for n in ns], "<=", [4 * m0[n] for n in ns]
    )


@_theorem("CONJ1.4", "ospt(n) below a third of the partition count",
          stated_n_from=10, n_base=1)
def _run_conj_1_4(ctx, rec, n_from, n_to):
    p = ctx.pvec(n_to)
    o = ctx.ospt(n_to)
    ns = range(n_from, n_to + 1)
    rec.check_rows(_n_point(), ns, [3 * o[n] for n in ns], "<", p[n_from : n_to + 1])


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

SUITE_ORDER = tuple(REGISTRY)


def _spec(theorem_id: str) -> TheoremSpec:
    if theorem_id not in REGISTRY:
        raise UnknownTheorem(theorem_id)
    return REGISTRY[theorem_id]


@dataclass
class _Job:
    """One theorem's scan over [n_from, n_to] with its grid, and its record."""

    spec: TheoremSpec
    n_from: int
    n_to: int
    params: Dict[str, int]
    rec: _Recorder = field(default_factory=_Recorder)

    @classmethod
    def make(
        cls, theorem_id: str, n_to: int, overrides: Optional[Dict[str, int]]
    ) -> "_Job":
        spec = _spec(theorem_id)
        overrides = dict(overrides or {})
        n_from = max(overrides.pop("n_from", spec.stated_n_from), spec.n_base)
        params = dict(spec.defaults)
        for key, value in overrides.items():
            if key not in params:
                raise RangeError(f"{theorem_id} does not take override {key!r}")
            params[key] = value
        if n_to < n_from:
            raise RangeError(f"n_to={n_to} is below the scan start {n_from}")
        return cls(spec, n_from, n_to, params)

    def report(self) -> VerificationReport:
        if self.rec.checked == 0:
            raise RangeError(
                f"{self.spec.id} checks no point for n in "
                f"[{self.n_from}, {self.n_to}] with {self.params}"
            )
        return VerificationReport(
            theorem_id=self.spec.id,
            n_from=self.n_from,
            n_to=self.n_to,
            params=self.params,
            checked=self.rec.checked,
            violations=self.rec.violations,
            stated_n_from=self.spec.stated_n_from,
        )


def _run(
    jobs: List[_Job], n_to: int, ctx: Optional[VerifyContext]
) -> List[VerificationReport]:
    """Run the jobs, the row scans among them in one streamed pass and then
    the others, and return their reports in job order."""
    if ctx is None:
        ctx = VerifyContext()
    ctx.stream(
        n_to,
        [(j.n_from, j.n_to, partial(j.spec.run, j.rec)) for j in jobs if j.spec.rows],
    )
    for job in jobs:
        if not job.spec.rows:
            job.spec.run(ctx, job.rec, job.n_from, job.n_to, **job.params)
    return [job.report() for job in jobs]


def verify(
    theorem_id: str,
    n_to: int,
    overrides: Optional[Dict[str, int]] = None,
    ctx: Optional[VerifyContext] = None,
) -> VerificationReport:
    """Scan one theorem over [n_from, n_to] and report every violation.

    ``overrides`` may carry ``n_from`` plus any of the theorem's grid
    parameters (``k_max``, ``m_max``).  Defaults are the stated ranges.
    A row scan gets a streamed pass of its own, which makes only the rows
    it reads.
    """
    return _run([_Job.make(theorem_id, n_to, overrides)], n_to, ctx)[0]


def verify_suite(
    n_to: int, ctx: Optional[VerifyContext] = None
) -> List[VerificationReport]:
    """Run every registered theorem at its default range capped by n_to:
    the row scans in one streamed pass, which also serves the others."""
    need = max(spec.stated_n_from for spec in REGISTRY.values())
    if n_to < need:
        raise RangeError(f"the full suite needs n_to >= {need}, got {n_to}")
    return _run([_Job.make(tid, n_to, None) for tid in SUITE_ORDER], n_to, ctx)


def find_threshold(
    theorem_id: str, n_to: int, ctx: Optional[VerifyContext] = None
) -> Optional[int]:
    """Least n0 such that the theorem holds for all n0 <= n <= n_to.

    Scans from the theorem's base range, ignoring the stated threshold.
    Returns None when even n = n_to has a violation.
    """
    spec = _spec(theorem_id)
    if n_to < 2:
        raise RangeError("threshold search needs n_to >= 2")
    report = verify(theorem_id, n_to, overrides={"n_from": spec.n_base}, ctx=ctx)
    if not report.violations:
        return spec.n_base
    worst = max(int(v.point["n"]) for v in report.violations)
    if worst >= n_to:
        return None
    return worst + 1


def stated_threshold(theorem_id: str) -> int:
    return _spec(theorem_id).stated_n_from


def list_theorems() -> List[str]:
    return list(SUITE_ORDER)
