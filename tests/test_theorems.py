"""Verification harness: reports, thresholds, falsification hooks."""

from __future__ import annotations

import functools
import operator

import pytest

from crankq import families, statistics, tables, theorems
from crankq.errors import RangeError, UnknownTheorem
from crankq.theorems import (
    REGISTRY,
    SUITE_ORDER,
    VerifyContext,
    find_threshold,
    stated_threshold,
    verify,
    verify_suite,
)
from crankq.tables import CumulativeTable, DistributionTable, cumulative


@pytest.mark.parametrize("theorem_id", SUITE_ORDER)
def test_default_ranges_pass_to_100(theorem_id, ctx):
    report = verify(theorem_id, 100, ctx=ctx)
    assert report.passed, report.violations[:3]
    assert report.checked > 0
    assert report.status == "pass"


def test_unknown_theorem_and_bad_range():
    with pytest.raises(UnknownTheorem):
        verify("NOPE", 100)
    with pytest.raises(RangeError):
        verify("THM1.7", 10)  # below the stated start 44
    with pytest.raises(RangeError):
        verify("THM1.9", 100, overrides={"bogus": 1})
    with pytest.raises(UnknownTheorem):
        find_threshold("NOPE", 100)


def test_reports_are_deterministic(ctx):
    a = verify("THM1.6", 60, ctx=ctx)
    b = verify("THM1.6", 60, ctx=ctx)
    assert a.as_dict() == b.as_dict()


def test_sub_threshold_scan_finds_violations(ctx):
    report = verify("THM1.9", 100, overrides={"n_from": 2}, ctx=ctx)
    assert not report.passed
    violating_n = {v.point["n"] for v in report.violations}
    assert 4 in violating_n  # p(4) = 5 < 21 = 21*M(0,4)
    assert max(violating_n) < 39


def _falsify_funnel(monkeypatch):
    """Make the comparison funnel report every position as failing; every
    scan looks it up as a module global, so this reaches every check."""
    monkeypatch.setattr(
        theorems, "_holds_rows", lambda lhs, op, rhs: list(range(len(lhs)))
    )


def test_falsified_comparison_cannot_pass(monkeypatch, ctx):
    _falsify_funnel(monkeypatch)
    report = verify("THM1.7", 50, ctx=ctx)
    assert report.status == "fail"
    assert len(report.violations) == report.checked > 0


ROW_SCANS = ("THM1.1", "THM1.2", "THM1.6", "THM1.7", "COR1.8", "EQ9.5", "EQ9.6")

# The scans over crank or rank counts: the row scans and EQ4.4's columns.
SLICE_SCANS = (*ROW_SCANS, "EQ4.4")


@pytest.mark.parametrize("theorem_id", SLICE_SCANS)
def test_falsified_comparison_fails_every_row_scan_point(theorem_id, monkeypatch, ctx):
    # every point of a row- or column-slice scan still goes through the
    # funnel, the descents THM1.7 and COR1.8 share included, and no scan
    # reads a cell with get or le
    def per_cell_read(*args):
        raise AssertionError(f"{theorem_id} read a single cell")

    monkeypatch.setattr(DistributionTable, "get", per_cell_read)
    monkeypatch.setattr(CumulativeTable, "le", per_cell_read)
    _falsify_funnel(monkeypatch)
    report = verify(theorem_id, 50, ctx=ctx)
    assert len(report.violations) == report.checked > 0


def test_falsified_comparison_fails_every_suite_point(monkeypatch):
    # one streamed pass feeds THM1.7 and COR1.8 the same descents; each of
    # their point sets, and every other scan's, still fails point by point
    _falsify_funnel(monkeypatch)
    reports = verify_suite(60, ctx=VerifyContext())
    assert [r.theorem_id for r in reports] == list(SUITE_ORDER)
    for report in reports:
        assert len(report.violations) == report.checked > 0, report.theorem_id
    cor = next(r for r in reports if r.theorem_id == "COR1.8")
    n = 60
    assert [v.point for v in cor.violations if v.point["n"] == n] == [
        *({"n": n, "m": m, "form": "window"} for m in range(-(n - 2), 1)),
        *({"n": n, "m": m, "form": "window"} for m in range(0, n - 1)),
        *({"n": n, "m": m, "form": "mirror"} for m in range(1, n)),
    ]


@pytest.mark.parametrize("theorem_id", SUITE_ORDER)
def test_no_point_below_n_from_is_checked(theorem_id, monkeypatch, ctx):
    # every checked point fails under the falsified funnel, so the
    # violations list every point the scan checked
    _falsify_funnel(monkeypatch)
    report = verify(theorem_id, 60, overrides={"n_from": 50}, ctx=ctx)
    assert len(report.violations) == report.checked > 0
    assert all(50 <= v.point["n"] <= 60 for v in report.violations)


def test_funnel_reports_failing_positions():
    holds_rows = theorems._holds_rows
    lhs, rhs = [1, 2, 3, 4], [2, 2, 2, 5]
    assert holds_rows(lhs, ">=", rhs) == [0, 3]
    assert holds_rows(lhs, ">", rhs) == [0, 1, 3]
    assert holds_rows(lhs, "<=", rhs) == [2]
    assert holds_rows(lhs, "<", rhs) == [1, 2]
    assert holds_rows(lhs, "==", rhs) == [0, 2, 3]
    assert holds_rows([], "<", []) == []
    assert holds_rows((7,), "<", (7,)) == [0]


def test_funnel_rejects_unknown_ops_and_unequal_lengths():
    holds_rows = theorems._holds_rows
    for op in ("!=", "=>", "", "ge"):
        with pytest.raises(ValueError, match="unknown comparison"):
            holds_rows([1], op, [1])
    with pytest.raises(ValueError):
        holds_rows([1, 2], ">=", [1])
    with pytest.raises(ValueError):
        holds_rows([], "<=", [0])
    rec = theorems._Recorder()
    with pytest.raises(ValueError):
        rec.check_rows(lambda n: {"n": n}, range(3), [1, 2], ">=", [0, 0])
    with pytest.raises(ValueError):
        rec.check({"n": 1}, 1, "=", 1)


def test_eq_4_4_reports_violations_m_major(monkeypatch, ctx):
    # the column scan keeps the per-point scan's order and point keys,
    # which the CSV notes print as a dict repr
    _falsify_funnel(monkeypatch)
    report = verify("EQ4.4", 20, ctx=ctx)
    points = [v.point for v in report.violations]
    assert points == [{"n": n, "m": m} for m in range(2, 16) for n in range(1, 21)]
    assert all(list(p) == ["n", "m"] for p in points)


_OPS = {">=": operator.ge, "<=": operator.le}


def _fam(family, k, order):
    """The family's k-th series to q^order by its generating-function
    route, independent of the ladders the scans step."""
    return families.family_series(family, k, order).coeffs()


@functools.lru_cache(maxsize=None)
def _tables(n_max):
    """The dense crank and rank tables to n_max and their cumulative sums,
    (cranks, ranks, crank_cum, rank_cum), built once per n_max."""
    cranks, ranks = statistics.crank_table(n_max), statistics.rank_table(n_max)
    return cranks, ranks, cumulative(cranks), cumulative(ranks)


def _reference_comparisons(theorem_id, ctx, n_from, n_to):
    """(point, lhs, op, rhs) of every comparison for n_from <= n <= n_to,
    read one cell at a time with get and le, in the order the theorem's
    scan makes them."""
    if theorem_id == "EQ4.4":
        # m-major: down the n-axis one m at a time
        cranks = _tables(n_to)[0]
        for m in range(2, REGISTRY["EQ4.4"].defaults["m_max"] + 1):
            d, p = _fam("d", m, n_to), _fam("p", m + 1, n_to)
            for n in range(n_from, n_to + 1):
                rhs = (d[n - m] if n >= m else 0) + (
                    p[n - 2 * m - 3] if n >= 2 * m + 3 else 0
                )
                point = {"n": n, "m": m}
                yield point, cranks.get(m, n) - cranks.get(m, n - 1), ">=", rhs
        return
    for n in range(n_from, n_to + 1):
        yield from _reference_row(theorem_id, n, n_to)


def _reference_row(theorem_id, n, n_to):
    cranks, ranks, mc, nc = _tables(n_to)
    if theorem_id == "THM1.1":
        for m in [*range(0, max(n - 2, 0)), n - 1]:
            yield {"n": n, "m": m}, ranks.get(m, n), ">=", ranks.get(m, n - 1)
    elif theorem_id == "THM1.2":
        for m in range(0, n):
            yield {"n": n, "m": m}, ranks.get(m, n), ">=", ranks.get(m + 2, n)
    elif theorem_id == "THM1.6":
        for m in range(0, n - 1):
            yield {"n": n, "m": m}, cranks.get(m, n), ">=", cranks.get(m, n - 1)
    elif theorem_id == "THM1.7":
        for m in range(1, n):
            yield {"n": n, "m": m}, cranks.get(m - 1, n), ">=", cranks.get(m, n)
    elif theorem_id == "COR1.8":
        for m in range(-(n - 2), 1):
            point = {"n": n, "m": m, "form": "window"}
            yield point, cranks.get(m, n), ">=", cranks.get(m - 1, n)
        for m in range(0, n - 1):
            point = {"n": n, "m": m, "form": "window"}
            yield point, cranks.get(m, n), ">=", cranks.get(m + 1, n)
        for m in range(1, n):
            point = {"n": n, "m": m, "form": "mirror"}
            yield point, cranks.get(m - 1, n), ">=", cranks.get(m, n)
    elif theorem_id == "EQ9.5":
        for m in range(-n, 1):
            yield {"n": n, "m": m}, mc.le(m, n), "<=", nc.le(m + 1, n)
    elif theorem_id == "EQ9.6":
        for m in range(0, n + 1):
            yield {"n": n, "m": m}, nc.le(m - 1, n), "<=", mc.le(m, n)


@pytest.mark.parametrize("theorem_id", SLICE_SCANS)
def test_row_slice_scans_match_per_point_reference(theorem_id, ctx):
    spec = REGISTRY[theorem_id]
    found = 0
    for n_to in (3, 7, 20, 90):
        comparisons = list(_reference_comparisons(theorem_id, ctx, spec.n_base, n_to))
        violations = [
            {"point": point, "lhs": lhs, "rhs": rhs}
            for point, lhs, op, rhs in comparisons
            if not _OPS[op](lhs, rhs)
        ]
        expected = {
            "id": theorem_id,
            "params": dict(spec.defaults),
            "range": {
                "n_from": spec.n_base,
                "n_to": n_to,
                "stated_n_from": spec.stated_n_from,
            },
            "checked": len(comparisons),
            "violations": violations,
            "status": "fail" if violations else "pass",
        }
        report = verify(theorem_id, n_to, overrides={"n_from": spec.n_base}, ctx=ctx)
        assert report.as_dict() == expected, n_to
        found += len(violations)
    # the scans stated from above their base have violations below it
    assert (found > 0) == (spec.stated_n_from > spec.n_base)


@pytest.mark.parametrize("theorem_id", SLICE_SCANS)
def test_row_scans_match_per_point_reference_from_a_later_start(theorem_id, ctx):
    # a scan that starts above its base still reads row n_from - 1 where
    # its statement compares neighbouring rows (THM1.1, THM1.6, EQ4.4)
    spec = REGISTRY[theorem_id]
    for n_from, n_to in ((2, 7), (5, 20), (30, 90)):
        comparisons = list(_reference_comparisons(theorem_id, ctx, n_from, n_to))
        report = verify(theorem_id, n_to, overrides={"n_from": n_from}, ctx=ctx)
        assert report.n_from == max(n_from, spec.n_base)
        if report.n_from != n_from:
            continue
        assert report.checked == len(comparisons)
        assert [v.as_dict() for v in report.violations] == [
            {"point": point, "lhs": lhs, "rhs": rhs}
            for point, lhs, op, rhs in comparisons
            if not _OPS[op](lhs, rhs)
        ]


def test_find_threshold_values(ctx):
    assert find_threshold("COR1.8", 300, ctx=ctx) <= 44
    assert find_threshold("THM1.9", 500, ctx=ctx) <= 39
    assert find_threshold("CONJ1.4", 200, ctx=ctx) <= 10
    assert stated_threshold("COR1.8") == 44


def test_find_threshold_none_when_top_fails(monkeypatch, ctx):
    _falsify_funnel(monkeypatch)
    assert find_threshold("THM1.9", 80, ctx=ctx) is None


def test_unimodality_formulations_agree(ctx):
    # the window scan and the mirror reduction must accept/reject together
    report = verify("COR1.8", 150, ctx=ctx)
    window = [v for v in report.violations if v.point.get("form") == "window"]
    mirror = [v for v in report.violations if v.point.get("form") == "mirror"]
    assert not window and not mirror
    low = verify("COR1.8", 43, overrides={"n_from": 2}, ctx=ctx)
    window_n = {v.point["n"] for v in low.violations if v.point["form"] == "window"}
    mirror_n = {v.point["n"] for v in low.violations if v.point["form"] == "mirror"}
    assert window_n == mirror_n  # same exceptional rows under both readings


def test_thm_1_1_gap_point_really_fails():
    # m = n - 2 is excluded from the scan because it genuinely drops:
    # no partition of n has rank n - 2, while (n - 1) alone has it at n - 1
    t = _tables(60)[1]
    for n in (12, 25, 60):
        assert t.get(n - 2, n) == 0
        assert t.get(n - 2, n - 1) == 1


def test_pp3_exception_is_exactly_minus_one():
    # the one excluded point of the pp monotonicity scan, pinned exactly
    pp3 = _fam("pp", 3, 10)
    assert pp3[7] - pp3[6] == -1
    f3 = _fam("f", 3, 10)
    assert f3[7] == -1


def test_d6_small_exceptions_recorded():
    d6 = _fam("d", 6, 20)
    assert {n for n in range(2, 14) if d6[n] < 0} == {7, 13}


def test_suite_runner_covers_registry(ctx):
    reports = verify_suite(60, ctx=ctx)
    assert [r.theorem_id for r in reports] == list(SUITE_ORDER)
    assert all(r.passed for r in reports)
    with pytest.raises(RangeError):
        verify_suite(40)  # below the largest stated threshold (44)


def test_scan_that_checks_no_point_raises(ctx):
    # an empty grid would otherwise report "pass" with checked == 0
    with pytest.raises(RangeError):
        verify("THM1.10", 50, overrides={"k_max": 3}, ctx=ctx)  # k runs from 5
    with pytest.raises(RangeError):
        verify("EQ4.4", 50, overrides={"m_max": -1}, ctx=ctx)  # m runs from 2


def test_single_point_range(ctx):
    report = verify("THM1.7", 44, ctx=ctx)
    assert report.passed
    assert report.checked == 43  # m = 1..43 at the single row n = 44


def test_crossover_of_polynomial_bounds():
    # scaled bound polynomials cross exactly at 105840
    assert 576 * 105839**7 < 21 * 2903040 * 105839**6
    assert 576 * 105840**7 >= 21 * 2903040 * 105840**6
    assert 21 * 2903040 // 576 == 105840


def test_grid_override_reaches_the_scan(ctx):
    default = verify("THM1.10", 60, ctx=ctx)
    narrow = verify("THM1.10", 60, overrides={"k_max": 7}, ctx=ctx)
    assert default.params == {"k_max": 25}
    assert narrow.params == {"k_max": 7}
    # k = 5..7 instead of 5..25, each over n = 14..60
    assert narrow.checked == 3 * 47
    assert default.checked == 21 * 47


def test_registry_order_and_bases():
    assert SUITE_ORDER == tuple(REGISTRY)
    assert len(SUITE_ORDER) == 23
    for spec in REGISTRY.values():
        assert spec.n_base <= spec.stated_n_from, spec.id


def test_context_serves_smaller_requests_from_cache():
    ctx = VerifyContext()
    assert ctx.pvec(20) is ctx.pvec(12)
    assert ctx.ospt(20) is ctx.ospt(12)
    assert ctx.rank_m0(20) is ctx.rank_m0(12)
    assert ctx.rank_m1(20) is ctx.rank_m1(12)
    assert ctx.crank_m0(20) is ctx.crank_m0(12)
    assert len(ctx.ospt(30)) == 31  # a larger request rebuilds


def _no_tables(monkeypatch):
    """Make every dense-table build raise; count the p(0..N) builds."""
    def no_table(*args, **kwargs):
        raise AssertionError("a verify call built a dense table")

    for owner in (statistics, tables):
        monkeypatch.setattr(owner, "cumulative", no_table)
    monkeypatch.setattr(statistics, "crank_table", no_table)
    monkeypatch.setattr(statistics, "rank_table", no_table)
    monkeypatch.setattr(DistributionTable, "__init__", no_table)
    monkeypatch.setattr(CumulativeTable, "__init__", no_table)
    built = []
    real = statistics.partition_numbers
    monkeypatch.setattr(
        statistics, "partition_numbers", lambda n: built.append(n) or real(n)
    )
    return built


def test_suite_streams_without_building_a_table(monkeypatch):
    built = _no_tables(monkeypatch)
    reports = verify_suite(60, ctx=VerifyContext())
    assert [r.theorem_id for r in reports] == list(SUITE_ORDER)
    assert all(r.passed for r in reports)
    # the one pass and the scans share one p(0..60)
    assert built == [60]


@pytest.mark.parametrize("theorem_id", SLICE_SCANS)
def test_row_scan_streams_without_building_a_table(theorem_id, monkeypatch):
    _no_tables(monkeypatch)
    report = verify(theorem_id, 90, ctx=VerifyContext())
    assert report.passed and report.checked > 0


def _count_rows_made(monkeypatch):
    """(statistic, n) of every row the sparse form makes from now on, in
    order."""
    built = []
    real = statistics._sparse_form_half

    def count(pvec, n, lead):
        built.append(("crank" if lead is statistics._crank_lead else "rank", n))
        return real(pvec, n, lead)

    monkeypatch.setattr(statistics, "_sparse_form_half", count)
    return built


def _each_row_once(stats, first, last):
    """``sorted(built)`` when each row first..last of each of ``stats`` is
    made once; row 0 is the empty partition's, which no call makes."""
    return [(stat, n) for stat in sorted(stats) for n in range(max(first, 1), last + 1)]


# The statistics each row scan reads; only THM1.1 and THM1.6 read row n - 1.
_ROWS_READ = {
    "THM1.1": ("rank",), "THM1.2": ("rank",),
    "THM1.6": ("crank",), "THM1.7": ("crank",), "COR1.8": ("crank",),
    "EQ9.5": ("crank", "rank"), "EQ9.6": ("crank", "rank"),
}
_READS_PREV = ("THM1.1", "THM1.6")


def _read_both_rows(w):
    """A row scan that reads rows n - 1 and n of both statistics."""
    return w.crank_prev, w.crank, w.crank_tails, w.rank_prev, w.rank, w.rank_tails


@pytest.mark.parametrize("theorem_id", ROW_SCANS)
def test_lone_row_scan_streams_from_the_row_before_n_from(theorem_id, monkeypatch):
    built = _count_rows_made(monkeypatch)
    for n_from in (0, 1, 2, 45, 90):
        # the same scan fed by a pass that reads every row of both
        # statistics from row 0 on, which a second scan forces
        job = theorems._Job.make(theorem_id, 90, {"n_from": n_from})
        scan = (job.n_from, job.n_to, functools.partial(job.spec.run, job.rec))
        VerifyContext().stream(90, [(0, 90, _read_both_rows), scan])
        assert sorted(built) == _each_row_once(("crank", "rank"), 0, 90)
        built.clear()
        ctx = VerifyContext()
        report = verify(theorem_id, 90, overrides={"n_from": n_from}, ctx=ctx)
        assert report.as_dict() == job.report().as_dict()
        # alone, the scan makes only the rows it reads, each once
        first = report.n_from - (theorem_id in _READS_PREV)
        assert sorted(built) == _each_row_once(_ROWS_READ[theorem_id], first, 90)
        built.clear()
    assert ctx.ospt(90) == statistics.ospt(90)


def test_stream_starts_at_the_row_before_the_least_n_from(monkeypatch):
    built = _count_rows_made(monkeypatch)
    windows = []

    def scan(w):
        _read_both_rows(w)
        windows.append(w.n)

    ctx = VerifyContext()
    ctx.stream(60, [(45, 60, scan), (2, 50, scan)])
    assert sorted(built) == _each_row_once(("crank", "rank"), 1, 60)
    assert windows == sorted([*range(2, 51), *range(45, 61)])
    built.clear()
    # a pass makes no row that no scan reads
    ctx.stream(60, [])
    ctx.stream(60, [(0, 60, lambda w: None)])
    assert built == []


def test_suite_makes_each_row_once(monkeypatch):
    # one shared pass: each statistic's rows 1..N once
    built = _count_rows_made(monkeypatch)
    verify_suite(100)
    assert sorted(built) == _each_row_once(("crank", "rank"), 0, 100)


@pytest.mark.parametrize("n_to", [44, 45, 100, 250])
def test_suite_matches_one_verify_per_theorem(n_to):
    suite = [r.as_dict() for r in verify_suite(n_to)]
    assert suite == [verify(tid, n_to).as_dict() for tid in SUITE_ORDER]


def test_one_dimensional_sequences_match_the_tables():
    n_max = 120
    cranks, ranks = _tables(n_max)[:2]
    want = (
        statistics.ospt(n_max, cranks=cranks, ranks=ranks),
        [ranks.get(0, n) for n in range(n_max + 1)],
        [ranks.get(1, n) for n in range(n_max + 1)],
        [cranks.get(0, n) for n in range(n_max + 1)],
    )
    # built for each n on its own too, so every top coefficient is checked
    for n in range(1, n_max + 1):
        fresh = VerifyContext()
        got = fresh.ospt(n), fresh.rank_m0(n), fresh.rank_m1(n), fresh.crank_m0(n)
        assert got == tuple(w[: n + 1] for w in want), n
    # a covered request is served from the same entry
    assert fresh.rank_m1(40) is fresh.rank_m1(n_max)


def test_one_dimensional_routes_match_one_streamed_pass():
    # the streamed halves are the independent reference: the first positive
    # moments and the columns m = 0, 1 read off one pass, for every n <= N
    n_max = 3000
    ctx = VerifyContext()

    def moment(half):
        return sum(m * c for m, c in enumerate(half))

    o, n0, n1 = [], [], []
    for c, r in zip(statistics.crank_halves(n_max), statistics.rank_halves(n_max)):
        o.append(moment(c) - moment(r))
        n0.append(r[0])
        n1.append(r[1] if len(r) > 1 else 0)
    assert ctx.ospt(n_max) == o
    assert ctx.rank_m0(n_max) == n0
    assert ctx.rank_m1(n_max) == n1


def _streamed_windows(n_max):
    """Every window one streamed pass from row 0 sends, in order."""
    windows = []
    VerifyContext().stream(n_max, [(0, n_max, windows.append)])
    return windows


def test_tail_sums_give_the_cumulative_tables():
    # the cumulative scans read le(m, n) off the streamed tail sums and
    # p(n); the prefix-summed dense rows are the independent reference
    n_max = 90
    crank_cum, rank_cum = _tables(n_max)[2:]
    pvec = statistics.partition_numbers(n_max)
    windows = _streamed_windows(n_max)
    assert [w.n for w in windows] == list(range(n_max + 1))
    for w in windows:
        n = w.n
        assert w.p == pvec[n]
        ms = range(-(n + 1), n + 2)
        for tails, cum in ((w.crank_tails, crank_cum), (w.rank_tails, rank_cum)):
            assert theorems._le_row(tails, w.p, ms.start, ms.stop) == [
                cum.le(m, n) for m in ms
            ], n
        # the row mass: tails[0] + tails[1] sums the row by symmetry
        if n >= 1:
            assert w.crank_tails[0] + w.crank_tails[1] == pvec[n]
            assert sum(w.rank_tails[:2]) == pvec[n]


def test_streamed_halves_match_the_public_halves():
    n_max = 60
    windows = _streamed_windows(n_max)
    assert [w.crank for w in windows] == list(statistics.crank_halves(n_max))
    assert [w.rank for w in windows] == list(statistics.rank_halves(n_max))
    assert [w.crank_prev for w in windows[1:]] == [w.crank for w in windows[:-1]]
    assert [w.rank_prev for w in windows[1:]] == [w.rank for w in windows[:-1]]
    assert windows[0].crank_prev == windows[0].rank_prev == []


def _reference_one_dim(theorem_id, ctx, n_from, n_to, grid=None):
    """(point, lhs, op, rhs) of every comparison of a one-dimensional scan
    with the given grid (by default its own), one point at a time, in the
    order the scan reports them."""
    if theorem_id == "EQ4.4":
        yield from _reference_comparisons(theorem_id, ctx, n_from, n_to)
        return
    grid = {**REGISTRY[theorem_id].defaults, **(grid or {})}
    p, o = ctx.pvec(n_to), ctx.ospt(n_to)
    n0, n1, m0 = ctx.rank_m0(n_to), ctx.rank_m1(n_to), ctx.crank_m0(n_to)
    ns = range(n_from, n_to + 1)
    if theorem_id == "THM1.3a":
        for n in ns:
            yield {"n": n}, 4 * o[n], ">", p[n] + 2 * n0[n] - m0[n]
    elif theorem_id == "THM1.3b":
        for n in ns:
            yield {"n": n}, 4 * o[n], "<", p[n] + 2 * n0[n] - m0[n] + 2 * n1[n]
    elif theorem_id == "THM1.3c":
        for n in ns:
            yield {"n": n}, 2 * o[n], "<", p[n]
    elif theorem_id == "THM1.9":
        for n in ns:
            yield {"n": n}, p[n], ">=", 21 * m0[n]
    elif theorem_id == "EQ9.12":
        for n in ns:
            yield {"n": n}, n0[n] + n1[n], "<=", 4 * m0[n]
    elif theorem_id == "CONJ1.4":
        for n in ns:
            yield {"n": n}, 3 * o[n], "<", p[n]
    elif theorem_id in ("THM1.10", "THM1.11"):
        family, k_min = ("p", 5) if theorem_id == "THM1.10" else ("pp", 3)
        for k in range(k_min, grid["k_max"] + 1):
            c = _fam(family, k, n_to)
            for n in ns:
                if (theorem_id, k, n) != ("THM1.11", 3, 7):
                    yield {"n": n, "k": k}, c[n], ">=", c[n - 1]
    elif theorem_id == "THM2.4":
        # the clauses of d_2..d_6 do not depend on k_max
        d = {k: _fam("d", k, n_to) for k in range(2, max(grid["k_max"], 6) + 1)}
        for n in ns:
            yield {"n": n, "clause": "d2"}, d[2][n], "==", 1 if n % 2 == 0 else -1
            want3 = {0: 1, 2: 1, 1: -1}.get(n % 6, 0)
            yield {"n": n, "clause": "d3"}, d[3][n], "==", want3
            if n % 2 == 0:
                yield {"n": n, "clause": "d4-even"}, d[4][n], ">=", 0
            else:
                want4 = -(n // 12) if n % 12 == 3 else -((n + 11) // 12)
                yield {"n": n, "clause": "d4-odd"}, d[4][n], "==", want4
        for n in range(max(n_from, 2), n_to + 1):
            yield {"n": n, "clause": "d5"}, d[5][n], ">=", 0
            if n >= 14:
                yield {"n": n, "clause": "d5-pos"}, d[5][n], ">=", 1
        for n in range(max(n_from, 14), n_to + 1):
            yield {"n": n, "clause": "d6"}, d[6][n], ">=", 0
        for k in range(7, grid["k_max"] + 1):
            for n in range(max(n_from, 2), n_to + 1):
                yield {"n": n, "k": k, "clause": "dk"}, d[k][n], ">=", 0
            for n in (k + 2, 2 * k + 7):
                if n in ns:
                    yield {"n": n, "k": k, "clause": "dk-pos"}, d[k][n], ">=", 1
    elif theorem_id == "LEM2.3":
        for k in range(4, grid["k_max"] + 1):
            t = _fam("t", k, n_to)
            for n in ns:
                yield {"n": n, "k": k}, t[n], ">=", 0
                if n >= 14 and k != 5:
                    yield {"n": n, "k": k, "clause": "pos"}, t[n], ">=", 1
    elif theorem_id == "COR2.2":
        for k in range(3, grid["k_max"] + 1):
            c = _fam("p", k, n_to)
            for n in ns:
                yield {"n": n, "k": k}, c[n], ">=", 1
                if n >= 12:
                    yield {"n": n, "k": k, "clause": "floor"}, c[n], ">=", n // 6
    elif theorem_id == "THM3.1":
        # the clauses of f_2 and f_3 do not depend on k_max
        f = {k: _fam("f", k, n_to) for k in range(2, max(grid["k_max"], 3) + 1)}
        for k in range(2, grid["k_max"] + 1):
            for n, want in ((0, 1), (1, -1)):
                if n in ns:
                    yield {"n": n, "k": k, "clause": "init"}, f[k][n], "==", want
        for n in ns:
            if n % 2 == 0:
                yield {"n": n, "k": 2, "clause": "even"}, f[2][n], ">=", 0
            else:
                yield {"n": n, "k": 2, "clause": "odd"}, f[2][n], "==", -((n + 5) // 6)
        for n in range(max(n_from, 2), n_to + 1):
            if n != 7:
                yield {"n": n, "k": 3}, f[3][n], ">=", 0
            if n % 2 == 1 and n >= 17:
                yield {"n": n, "k": 3, "clause": "growth"}, 2 * f[3][n], ">=", n - 15
        for k in range(4, grid["k_max"] + 1):
            for n in range(max(n_from, 2), n_to + 1):
                yield {"n": n, "k": k}, f[k][n], ">=", 0
            if 2 * k + 7 in ns:
                point = {"n": 2 * k + 7, "k": k, "clause": "pos"}
                yield point, f[k][2 * k + 7], ">=", 1
    elif theorem_id == "THM9.1":
        for k in range(1, grid["k_max"] + 1):
            g, h = _fam("g", k, n_to), _fam("h", k, n_to)
            for n in range(max(n_from, {1: 20, 2: 51, 3: 67}.get(k, 0)), n_to + 1):
                yield {"n": n, "k": k}, g[n], ">=", 21 * h[n]
    elif theorem_id == "LEM9.3":
        for k in range(1, grid["k_max"] + 1):
            g, h = _fam("g", k, n_to), _fam("h", k, n_to)
            for n in range(max(n_from, 1), n_to + 1):
                yield {"n": n, "k": k, "clause": "g-mono"}, g[n], ">=", g[n - 1]
                yield {"n": n, "k": k, "clause": "h-mono"}, h[n], ">=", h[n - 1]
            if k >= 2:
                hprev = _fam("h", k - 1, n_to)
                for n in ns:
                    point = {"n": n, "k": k, "clause": "cross"}
                    yield point, k * k * h[n], "<=", n * n * hprev[n]
    elif theorem_id == "GBOUNDS":
        for family, k, scale, power, op, lo in (
            ("g", 2, 24, 3, ">=", 0), ("g", 3, 4320, 5, ">=", 3),
            ("g", 4, 2903040, 7, ">=", 8), ("h", 2, 4, 2, "<=", 0),
            ("h", 3, 36, 4, "<=", 0),
        ):
            c = _fam(family, k, n_to)
            for n in range(max(n_from, lo), n_to + 1):
                point = {"n": n, "k": k, "clause": f"{family}{k}"}
                yield point, scale * c[n], op, n**power
    else:
        raise AssertionError(f"no reference for {theorem_id}")


ONE_DIM_ROW_SCANS = tuple(tid for tid in SUITE_ORDER if not REGISTRY[tid].rows)


@pytest.mark.parametrize("theorem_id", ONE_DIM_ROW_SCANS)
def test_falsified_one_dimensional_scan_fails_point_by_point(
    theorem_id, monkeypatch, ctx
):
    # each batched clause still reports every point, in the order of the
    # per-point loop, interleaved clauses included
    spec = REGISTRY[theorem_id]
    comparisons = list(_reference_one_dim(theorem_id, ctx, spec.n_base, 30))
    _falsify_funnel(monkeypatch)
    report = verify(theorem_id, 30, overrides={"n_from": spec.n_base}, ctx=ctx)
    assert report.checked == len(comparisons) > 0
    assert [v.as_dict() for v in report.violations] == [
        {"point": point, "lhs": lhs, "rhs": rhs} for point, lhs, op, rhs in comparisons
    ]


_ONE_DIM_OPS = {**_OPS, ">": operator.gt, "<": operator.lt, "==": operator.eq}


@pytest.mark.parametrize("theorem_id", ONE_DIM_ROW_SCANS)
def test_one_dimensional_scans_match_per_point_reference(theorem_id, ctx):
    spec = REGISTRY[theorem_id]
    for n_from in sorted({spec.n_base, 2, 7, 13, spec.stated_n_from}):
        if n_from < spec.n_base:
            continue
        comparisons = list(_reference_one_dim(theorem_id, ctx, n_from, 90))
        report = verify(theorem_id, 90, overrides={"n_from": n_from}, ctx=ctx)
        assert report.checked == len(comparisons)
        assert [v.as_dict() for v in report.violations] == [
            {"point": point, "lhs": lhs, "rhs": rhs}
            for point, lhs, op, rhs in comparisons
            if not _ONE_DIM_OPS[op](lhs, rhs)
        ]


ONE_DIM_SCANS = (
    "THM1.3a", "THM1.3b", "THM1.3c", "THM1.9", "EQ9.12", "CONJ1.4", "EQ4.4",
)


@pytest.mark.parametrize("theorem_id", ONE_DIM_SCANS)
def test_one_dimensional_scans_make_no_row(theorem_id, monkeypatch):
    def no_row(*args):
        raise AssertionError(f"{theorem_id} made a crank or rank row")

    monkeypatch.setattr(statistics, "_sparse_form_half", no_row)
    report = verify(theorem_id, 300, ctx=VerifyContext())
    assert report.passed and report.checked > 0


_LADDER_ORDERS = (0, 1, 2, 7, 60, 300)


def _ladder_ks(family):
    return range(families.least_k(family), 26)


@pytest.mark.parametrize("family", ["p", "pp", "d", "t", "f", "g", "h"])
def test_family_ladders_match_family_series(family):
    for order in _LADDER_ORDERS:
        rungs = families.ladder(family, order)
        # every rung is kept while the ladder goes on, so a step that
        # changed an earlier rung in place would show below
        kept = [next(rungs) for _ in _ladder_ks(family)]
        next(rungs)
        assert [k for k, _ in kept] == list(_ladder_ks(family))
        for k, got in kept:
            assert got == _fam(family, k, order), (family, k, order)


# Grids that stop the k (or m) range below the fixed clauses of a scan,
# or just at them; the fixed clauses are checked whatever the grid.
_SMALL_GRIDS = (
    *(("THM2.4", k) for k in (2, 5, 6, 7)),
    *(("THM3.1", k) for k in (2, 3, 4)),
    *((tid, k) for tid in ("LEM9.3", "THM9.1") for k in (1, 2)),
    ("COR2.2", 3),
    *(("LEM2.3", k) for k in (4, 5)),
)


@pytest.mark.parametrize("theorem_id, k_max", _SMALL_GRIDS)
def test_small_grid_overrides_match_per_point_reference(theorem_id, k_max, ctx):
    grid = {"k_max": k_max}
    for n_from in sorted({max(f, REGISTRY[theorem_id].n_base) for f in (0, 1, 2, 13)}):
        comparisons = list(_reference_one_dim(theorem_id, ctx, n_from, 90, grid))
        report = verify(theorem_id, 90, overrides={"n_from": n_from, **grid}, ctx=ctx)
        assert report.checked == len(comparisons) > 0
        assert [v.as_dict() for v in report.violations] == [
            {"point": point, "lhs": lhs, "rhs": rhs}
            for point, lhs, op, rhs in comparisons
            if not _ONE_DIM_OPS[op](lhs, rhs)
        ]


def test_no_family_list_outlives_its_scan():
    ctx = VerifyContext()
    verify_suite(300, ctx)
    assert set(ctx._memo) == {"pvec", "ospt", "rank_m0", "rank_m1", "crank_m0"}


def test_suite_memory_grows_about_linearly(traced_peak):
    # the dense tables held O(N^2) cells, a ratio of about 7.6 here;
    # streamed rows keep it near 3.3 (one window of rows plus the series)
    small = traced_peak(lambda: verify_suite(200))
    large = traced_peak(lambda: verify_suite(600))
    assert large < 4.5 * small, (small, large)


def test_lone_row_scan_memory_grows_about_linearly(traced_peak):
    # a row source keeps two rows; one that kept every row it made would
    # hold O(N^2) cells
    small = traced_peak(lambda: verify("THM1.6", 200))
    large = traced_peak(lambda: verify("THM1.6", 600))
    assert large < 4.5 * small, (small, large)
