"""Crank/rank tables, cumulative tables, partition numbers, ospt."""

from __future__ import annotations

import pytest

from crankq.enumeration import crank_distribution_bruteforce, rank_distribution_dp
from crankq.series import inv_pochhammer
from crankq.statistics import (
    _column,
    _crank_lead,
    _rank_lead,
    _row_source,
    crank_gf,
    crank_half,
    crank_halves,
    crank_table,
    ospt,
    partition_numbers,
    rank_halves,
    rank_table,
)
from crankq.tables import cumulative, slice_row


def positive_moment(table, n):
    """sum_{m >= 1} m * counts[m, n] for one row of a dense table: the
    second route that :func:`ospt`'s numerators are checked against."""
    lo = table.min_m[n]
    row = table.rows[n]
    start = max(1 - lo, 0)
    return sum((lo + i) * c for i, c in enumerate(row[start:], start=start))


def test_crank_gf_low_coefficients():
    g = crank_gf(0, 10)
    assert g.coeff(0) == 1
    assert g.coeff(1) == -1
    assert crank_gf(2, 10).coeff(4) == 1  # the partition (2, 2)
    assert crank_gf(1, 10).coeff(1) == 1  # convention row emerges from the series


def test_crank_table_matches_per_m_series():
    order = 150
    table = crank_table(order)
    for m in range(order + 1):
        g = crank_gf(m, order)
        assert [table.get(m, n) for n in range(order + 1)] == g.coeffs()


def test_columns_match_the_table_columns():
    # counts(m, 0..n) down the n-axis against the rows' entries, cut at
    # every n so each top coefficient is checked, from one longer p vector
    n_max = 120
    pvec = partition_numbers(n_max)
    tables = ((crank_table(n_max), _crank_lead), (rank_table(n_max), _rank_lead))
    for table, lead in tables:
        for m in range(16):
            want = [table.get(m, n) for n in range(n_max + 1)]
            for n in range(n_max + 1):
                assert _column(lead, m, pvec, n) == want[: n + 1], (table.stat, m, n)


def test_crank_columns_match_crank_gf():
    pvec = partition_numbers(300)
    for m in range(16):
        assert _column(_crank_lead, m, pvec, 300) == crank_gf(m, 300).coeffs(), m


def test_crank_table_matches_bruteforce_to_30():
    table = crank_table(30)
    for n in range(31):
        want = crank_distribution_bruteforce(n)
        got = {m: table.get(m, n) for m in table.m_range(n) if table.get(m, n)}
        assert got == want


def test_crank_table_row_shapes():
    table = crank_table(12)
    for n in range(13):
        assert table.min_m[n] == -n
        assert len(table.rows[n]) == 2 * n + 1
    assert table.row_dict(4) == {-4: 1, -3: 0, -2: 1, -1: 0, 0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
    for n in range(2, 13):
        assert table.get(n, n) == 1


def test_table_agrees_with_per_m_series_at_full_order(cranks500):
    for m in (0, 3, 77, 200):
        series = crank_gf(m, 500)
        assert [cranks500.get(m, n) for n in range(501)] == series.coeffs()


def test_mass_conservation_and_symmetry(cranks500, ranks500, pvec1000):
    for n in range(501):
        assert cranks500.row_sum(n) == pvec1000[n]
        assert ranks500.row_sum(n) == pvec1000[n]
    assert cranks500.is_symmetric()
    assert ranks500.is_symmetric()


def test_crank_moment_dyson(cranks500, pvec1000):
    # Dyson: sum_m m^2 M(m,n) = 2n p(n), the n = 1 convention row included
    for n in range(501):
        second = sum(m * m * c for m, c in cranks500.row_dict(n).items())
        assert second == 2 * n * pvec1000[n]


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 120])
def test_rank_table_matches_dp(n_max):
    table = rank_table(n_max)
    oracle = rank_distribution_dp(n_max)
    assert table.min_m == oracle.min_m
    assert table.rows == oracle.rows


def test_rank_table_mass_past_int128_overflow():
    # a 128-bit rank DP silently loses rows from n = 1609 on
    n = 1700
    assert sum(rank_table(n).rows[n]) == partition_numbers(n)[n]


def test_partition_numbers_small():
    pvec = partition_numbers(30)
    assert pvec[:5] == [1, 1, 2, 3, 5]
    assert pvec[30] == 5604


def test_partition_numbers_match_series_route():
    # the pentagonal recurrence against 1/(q;q)_N expanded by N geometric
    # divisions
    n = 1000
    assert partition_numbers(n) == inv_pochhammer(1, n, n).coeffs()
    with pytest.raises(ValueError):
        partition_numbers(-1)


@pytest.mark.parametrize(
    "build", [crank_halves, rank_halves, crank_table, rank_table, crank_half]
)
def test_negative_n_max_raises_at_call_time(build):
    # a generator body runs only at its first next(): the check must not wait
    with pytest.raises(ValueError):
        build(-1)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 5, 30, 400])
def test_halves_are_the_right_halves_of_the_tables(n_max):
    for halves, table in (
        (crank_halves(n_max), crank_table(n_max)),
        (rank_halves(n_max), rank_table(n_max)),
    ):
        got = list(halves)
        assert len(got) == n_max + 1
        for n, half in enumerate(got):
            assert table.min_m[n] == 1 - len(half)
            assert table.rows[n] == half[:0:-1] + half
    assert next(rank_halves(n_max)) == [1]
    assert next(crank_halves(n_max)) == [1]
    assert crank_half(n_max) == crank_table(n_max).rows[n_max][n_max:]


@pytest.mark.parametrize("build", [crank_halves, rank_halves])
@pytest.mark.parametrize("n_from", [0, 1, 2, 17, 40, 41])
def test_halves_from_a_later_row_are_the_tail(build, n_from):
    # the rows from n_from on, made off a p vector longer than they need
    lead = _crank_lead if build is crank_halves else _rank_lead
    row = _row_source(lead, partition_numbers(45))
    rows = [row(n) for n in range(n_from, 41)]
    assert [half for half, _ in rows] == list(build(40))[n_from:]
    assert list(build(40, n_from)) == list(build(40))[n_from:]
    for half, tails in rows:
        assert tails == [sum(half[m:]) for m in range(len(half))]


@pytest.mark.parametrize("n_max", [1, 2, 3, 50, 300])
def test_streamed_ospt_matches_the_table_route(n_max):
    # the numerators against the moments summed off the dense tables;
    # tables passed, as wide as n_max or wider, change nothing
    cranks, ranks = crank_table(n_max), rank_table(n_max)
    want = [0] + [
        positive_moment(cranks, n) - positive_moment(ranks, n)
        for n in range(1, n_max + 1)
    ]
    assert ospt(n_max) == want
    assert ospt(n_max, cranks=cranks, ranks=ranks) == want
    assert ospt(n_max, cranks=cranks) == want
    assert ospt(n_max, ranks=ranks) == want
    wide_c, wide_r = crank_table(n_max + 3), rank_table(n_max + 3)
    assert ospt(n_max, cranks=wide_c, ranks=wide_r) == want
    assert ospt(n_max, ranks=wide_r) == want


def test_streams_share_one_p_vector(monkeypatch):
    from crankq import statistics

    want = ospt(50, cranks=crank_table(50), ranks=rank_table(50))
    built = []
    real = statistics.partition_numbers
    monkeypatch.setattr(
        statistics, "partition_numbers", lambda n: built.append(n) or real(n)
    )
    assert ospt(50) == want
    assert built == []  # ospt reads no p(n)
    pvec = real(60)  # a longer p vector serves too
    assert ospt(50, pvec=pvec) == want
    assert ospt(50, pvec=pvec[:51]) == want
    assert built == []


@pytest.mark.parametrize("build", [crank_halves, rank_halves])
def test_passed_p_vector_must_cover_n_max(build):
    # the halves take no p vector; the row source they share does
    lead = _crank_lead if build is crank_halves else _rank_lead
    with pytest.raises(ValueError):
        _row_source(lead, partition_numbers(9))(10)
    row = _row_source(lead, partition_numbers(9))
    assert [row(n)[0] for n in range(5, 10)] == list(build(9))[5:]
    with pytest.raises(ValueError):
        row(10)
    with pytest.raises(ValueError):
        build(-1)
    with pytest.raises(ValueError):
        build(9, -1)
    # row -1 is zero everywhere; a row below it would be read off p(-1),
    # the last entry of the list
    assert _row_source(lead, partition_numbers(3))(-1) == ([], [])
    with pytest.raises(ValueError):
        _row_source(lead, partition_numbers(10))(-2)
    with pytest.raises(ValueError):
        ospt(10, pvec=partition_numbers(9))


def test_cumulative_endpoints_and_monotonicity():
    table = crank_table(20)
    cum = cumulative(table)
    pvec = partition_numbers(20)
    assert cum.le(0, 4) == 3
    for n in range(21):
        assert cum.le(n, n) == pvec[n]
        assert cum.le(-n - 1, n) == 0
        if n == 1:
            continue  # the convention row has a negative count, see below
        prev = 0
        for m in range(-n, n + 1):
            cur = cum.le(m, n)
            assert cur >= prev
            prev = cur
    # n = 1 is the one row where monotonicity cannot hold: its prefix sums
    # are pinned here instead
    assert [cum.le(m, 1) for m in (-2, -1, 0, 1, 2)] == [0, 1, 0, 1, 1]


def test_ospt_small_values():
    values = ospt(10)
    assert values[3] == 1
    assert all(v > 0 for v in values[1:])


def test_ospt_positive_to_200(ctx):
    values = ctx.ospt(200)
    assert all(values[n] > 0 for n in range(1, 201))


def test_ospt_moment_consistency(cranks500):
    # by symmetry the positive moment is half the absolute first moment
    for n in (17, 130, 401):
        row = cranks500.row_dict(n)
        abs_moment = sum(abs(m) * c for m, c in row.items())
        assert 2 * positive_moment(cranks500, n) == abs_moment


def test_rank_table_thin_wrapper():
    t = rank_table(8)
    assert t.get(0, 1) == 1
    assert t.stat == "rank"


def test_ospt_validates_inputs():
    with pytest.raises(ValueError):
        ospt(0)
    with pytest.raises(ValueError):
        ospt(6, cranks=crank_table(5))
    with pytest.raises(ValueError):
        ospt(6, ranks=rank_table(5))


def test_degenerate_tables():
    ct = crank_table(0)
    assert ct.rows == [[1]] and ct.min_m == [0]
    rt = rank_table(0)
    assert rt.rows == [[1]]
    assert partition_numbers(0) == [1]
    rc = cumulative(rank_table(6))
    assert rc.le(5, 6) == rc.total(6)
    assert rc.le(-6, 6) == 0


def test_slice_row_zero_pads_like_get():
    cranks, ranks = crank_table(6), rank_table(6)
    cases = [
        (4, -9, -6),  # wholly below the stored m-range
        (4, 6, 9),  # wholly above it
        (4, -7, 8),  # straddles it on both sides
        (4, 2, 6),  # straddles its top
        (0, -2, 3),  # row 0
        (4, 2, 2),  # empty
        (4, 3, 1),  # empty, m_hi below m_lo
        (6, -6, 7),
    ]
    for table in (cranks, ranks):
        for n, m_lo, m_hi in cases:
            got = slice_row(table.rows[n], table.min_m[n], m_lo, m_hi)
            assert got == [table.get(m, n) for m in range(m_lo, m_hi)], (n, m_lo, m_hi)
    # an empty row, as row -1 is read, is zero everywhere
    assert slice_row([], 0, -2, 3) == [0] * 5 and slice_row([], 0, 3, 1) == []
    assert slice_row(cranks.rows[4], -4, -7, 8) == [0] * 3 + cranks.rows[4] + [0] * 3
    # a new list: writing to it leaves the table as it was
    row = slice_row(cranks.rows[4], -4, -4, 5)
    row[0] += 1
    assert cranks.get(-4, 4) == 1
