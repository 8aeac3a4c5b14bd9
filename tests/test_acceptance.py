"""Acceptance suite: one test per criterion, exact ranges, exact integers.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output on failure).  All comparisons are integer-exact; there are
no tolerances to tune.
"""

from __future__ import annotations

import dataclasses

import pytest

from crankq import identities
from crankq.enumeration import (
    crank_distribution_bruteforce,
    rank_distribution_bruteforce,
)
from crankq.families import family_series
from crankq.identities import check_identity, identity_grid, proof_series
from crankq.series import monomial
from crankq.statistics import crank_gf, crank_table
from crankq.theorems import verify


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok


def test_criterion_01_crank_oracle_equivalence(cranks500):
    ok = True
    for n in range(31):
        want = crank_distribution_bruteforce(n)
        got = {m: cranks500.get(m, n) for m in cranks500.m_range(n)}
        got = {m: c for m, c in got.items() if c != 0}
        ok &= got == {m: c for m, c in want.items() if c != 0}
    _report("criterion 1: crank table == brute force for n <= 30", ok)


def test_criterion_02_rank_oracle_equivalence(ranks500):
    ok = True
    for n in range(26):
        want = rank_distribution_bruteforce(n)
        got = {m: ranks500.get(m, n) for m in ranks500.m_range(n)}
        got = {m: c for m, c in got.items() if c != 0}
        ok &= got == {m: c for m, c in want.items() if c != 0}
    _report("criterion 2: rank table == brute force for n <= 25", ok)


def test_criterion_03_mass_conservation(cranks500, ranks500, pvec1000):
    ok = all(cranks500.row_sum(n) == pvec1000[n] for n in range(501))
    ok &= all(ranks500.row_sum(n) == pvec1000[n] for n in range(501))
    _report("criterion 3: row sums equal p(n) for n <= 500 (both tables)", ok)


def test_criterion_04_crank_monotone_in_n(ctx):
    report = verify("THM1.6", 300, ctx=ctx)
    _report("criterion 4: THM1.6 for 14 <= n <= 300", report.passed)


def test_criterion_05_unimodality(ctx):
    r1 = verify("THM1.7", 300, ctx=ctx)
    r2 = verify("COR1.8", 300, ctx=ctx)
    table = crank_table(300)
    row = [(m, table.get(m, 44)) for m in range(-43, 44)]
    counts = [c for _, c in row]
    peak_at_zero = table.get(0, 44) == max(counts)
    zero_idx = 43
    unimodal = all(counts[i] <= counts[i + 1] for i in range(zero_idx)) and all(
        counts[i] >= counts[i + 1] for i in range(zero_idx, len(counts) - 1)
    )
    ok = r1.passed and r2.passed and len(row) == 87 and peak_at_zero and unimodal
    _report("criterion 5: THM1.7 + COR1.8 to 300; n = 44 row reproduces", ok)


def test_criterion_06_partition_count_dominates(ctx):
    report = verify("THM1.9", 1000, ctx=ctx)
    _report("criterion 6: THM1.9 for 39 <= n <= 1000", report.passed)


def test_criterion_07_family_monotonicity(ctx):
    r1 = verify("THM1.10", 1000, overrides={"k_max": 25}, ctx=ctx)
    r2 = verify("THM1.11", 1000, overrides={"k_max": 25}, ctx=ctx)
    _report("criterion 7: THM1.10 (k <= 25) and THM1.11 (k <= 25) to 1000",
            r1.passed and r2.passed)


def test_criterion_08_difference_family_clauses(ctx):
    d2, d3, d4 = (family_series("d", k, 2000).coeffs() for k in (2, 3, 4))
    ok = all(d2[n] == (1 if n % 2 == 0 else -1) for n in range(2001))
    ok &= all(
        d3[n] == (1 if n % 6 in (0, 2) else (-1 if n % 6 == 1 else 0))
        for n in range(2001)
    )
    for n in range(2001):
        if n % 2 == 0:
            ok &= d4[n] >= 0
        elif n % 12 == 3:
            ok &= d4[n] == -(n // 12)
        else:
            ok &= d4[n] == -((n + 11) // 12)
    report = verify("THM2.4", 1000, overrides={"k_max": 25}, ctx=ctx)
    _report("criterion 8: THM2.4 clauses (closed forms to 2000, scans to 1000)",
            ok and report.passed)


def test_criterion_09_majorant_and_f_clauses(ctx):
    r1 = verify("LEM2.3", 500, overrides={"k_max": 20}, ctx=ctx)
    r2 = verify("THM3.1", 500, overrides={"k_max": 20}, ctx=ctx)
    _report("criterion 9: LEM2.3 and THM3.1 for k <= 20, n <= 500",
            r1.passed and r2.passed)


def test_criterion_10_identity_suite():
    bad = []
    for identity_id in identities.REGISTRY:
        for params in identity_grid(identity_id):
            result = check_identity(identity_id, 200, **params)
            if not result.passed:
                bad.append((identity_id, params, result.first_mismatch))
    _report("criterion 10: all registry identities at order 200, grids to 15",
            not bad)


def _proof_chain_holds(order: int) -> bool:
    ok = proof_series("T1", order).scan_sign(106, ">=0") == []
    t1_minus_h = proof_series("T1", order) - proof_series("H", order)
    ok &= t1_minus_h.scan_sign(11, ">=0") == []
    t2 = proof_series("T2", order)
    ok &= t2.scan_sign(44, ">=0") == []
    ok &= (proof_series("R", order) + proof_series("S", order)).coeffs() == t2.coeffs()
    for m in range(3, 16):
        tm = proof_series("TM", order, m=m)
        um = proof_series("UM", order, m=m)
        ok &= (tm - um).scan_sign(44, ">=0") == []
        ok &= um.scan_sign(44, ">=0") == []
        sandwich = crank_gf(m - 1, order) - crank_gf(m, order) - tm
        ok &= sandwich.scan_sign(0, ">=0") == []
    return ok


def test_criterion_11_proof_series_scans():
    _report("criterion 11: T1/T2 = R + S/TM/UM scans and the sandwich to 500",
            _proof_chain_holds(500))


def test_criterion_11_proof_series_scans_to_1000():
    _report("criterion 11: T1/T2 = R + S/TM/UM scans and the sandwich to 1000",
            _proof_chain_holds(1000))


def test_criterion_12_pair_count_dominance(ctx):
    r_low = verify("THM9.1", 2000, overrides={"k_max": 3}, ctx=ctx)
    r_high = verify("THM9.1", 5000, overrides={"k_max": 8}, ctx=ctx)
    r_lemma = verify("LEM9.3", 5000, overrides={"k_max": 8}, ctx=ctx)
    r_bounds = verify("GBOUNDS", 5000, ctx=ctx)
    # companion bound plus the exact crossover that replaces the full-range
    # run for k = 4 (which `crankq verify --theorem THM9.1 --n-max 105839`
    # reproduces on demand)
    h4 = family_series("h", 4, 5000).coeffs()
    companion = all(576 * h4[n] <= n**6 for n in range(5001))
    crossover = (576 * 105839**7 < 21 * 2903040 * 105839**6) and (
        576 * 105840**7 >= 21 * 2903040 * 105840**6
    )
    ok = (r_low.passed and r_high.passed and r_lemma.passed and r_bounds.passed
          and companion and crossover)
    _report("criterion 12: THM9.1/LEM9.3/GBOUNDS grids + crossover check", ok)


def test_criterion_13_ospt_chain(ctx):
    rs = [
        verify("THM1.3a", 200, ctx=ctx),
        verify("THM1.3b", 200, ctx=ctx),
        verify("THM1.3c", 200, ctx=ctx),
        verify("EQ9.5", 200, ctx=ctx),
        verify("EQ9.6", 200, ctx=ctx),
        verify("EQ9.12", 200, ctx=ctx),
        verify("CONJ1.4", 200, ctx=ctx),
    ]
    _report("criterion 13: ospt chain (THM1.3a/b/c, EQ9.5/9.6, EQ9.12, CONJ1.4)",
            all(r.passed for r in rs))


def test_criterion_14_rank_inequalities(ctx):
    r1 = verify("THM1.1", 200, ctx=ctx)
    r2 = verify("THM1.2", 200, ctx=ctx)
    _report("criterion 14: THM1.1 and THM1.2 to 200", r1.passed and r2.passed)


def test_criterion_15_negative_controls(monkeypatch, ctx):
    # 1. one series coefficient: flip M(0, 25) in a copied table and rerun
    #    the oracle-equivalence comparison
    table = crank_table(30)
    rows = [list(r) for r in table.rows]
    rows[25][25] += 1  # (m = 0, n = 25)
    broken = dataclasses.replace(table, rows=rows)
    diffs = [
        (n, m)
        for n in range(31)
        for m in broken.m_range(n)
        if broken.get(m, n) != crank_distribution_bruteforce(n).get(m, 0)
    ]
    ok1 = diffs == [(25, 0)]

    # 2. one registry formula term: add q^30 to one side of T5.3
    entry = identities.REGISTRY["T5.3"]
    orig_rhs = entry.sides[1]
    mutated = dataclasses.replace(
        entry,
        sides=(entry.sides[0], lambda order, m: orig_rhs(order, m) + monomial(1, 30, order)),
    )
    monkeypatch.setitem(identities.REGISTRY, "T5.3", mutated)
    result = check_identity("T5.3", 60, m=1)
    ok2 = (not result.passed) and result.first_mismatch[0] == 30
    monkeypatch.undo()

    # 3. one threshold: scanning THM1.9 from n = 2 must fail below 39 with
    #    located counterexamples
    report = verify("THM1.9", 120, overrides={"n_from": 2}, ctx=ctx)
    violating = sorted(v.point["n"] for v in report.violations)
    ok3 = (not report.passed) and violating and violating[0] == 3 and max(violating) < 39

    _report("criterion 15: three seeded mutations caught with located witnesses",
            ok1 and ok2 and ok3)
