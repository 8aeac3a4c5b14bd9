"""Identity registry: passes, parameter validation, mutation sensitivity."""

from __future__ import annotations

import dataclasses

import pytest

from crankq import identities
from crankq.errors import InvalidParams, UnknownIdentity
from crankq.identities import (
    _GRID_HI,
    _crank_series,
    _ip,
    _ksum_ip,
    check_identity,
    identity_grid,
    list_identities,
    list_proof_series,
    proof_series,
)
from crankq.series import TruncatedSeries, monomial
from crankq.statistics import crank_gf

ORDER = 120


@pytest.mark.parametrize("identity_id", list_identities())
def test_every_identity_passes_on_its_grid(identity_id):
    for params in identity_grid(identity_id, hi=10):
        result = check_identity(identity_id, ORDER, **params)
        assert result.passed, (identity_id, params, result.first_mismatch)
        assert result.status == "pass"


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check_identity("NOPE", 50)
    with pytest.raises(UnknownIdentity):
        proof_series("NOPE", 50)


def test_param_validation():
    with pytest.raises(InvalidParams):
        check_identity("T5.5", 50, m=2)  # below the m >= 3 bound
    with pytest.raises(InvalidParams):
        check_identity("T6.1", 50, m=1)  # parameterless
    with pytest.raises(InvalidParams):
        check_identity("PK-FORMS", 50)  # missing k
    with pytest.raises(InvalidParams):
        check_identity("PK-FORMS", 50, m=3)  # wrong name
    with pytest.raises(InvalidParams):
        proof_series("TM", 50, m=2)


def test_mutation_is_detected_with_located_mismatch(monkeypatch):
    # perturb the closed-form side of T5.3 at q^30 and expect the checker
    # to report exactly that exponent
    entry = identities.REGISTRY["T5.3"]
    orig_rhs = entry.sides[1]

    def bad_rhs(order, m):
        return orig_rhs(order, m) + monomial(1, 30, order)

    mutated = dataclasses.replace(entry, sides=(entry.sides[0], bad_rhs))
    monkeypatch.setitem(identities.REGISTRY, "T5.3", mutated)
    result = check_identity("T5.3", 50, m=1)
    assert not result.passed
    exponent, lhs, rhs = result.first_mismatch
    assert exponent == 30
    assert rhs == lhs + 1


def test_single_coefficient_flip_always_caught(monkeypatch):
    entry = identities.REGISTRY["PN-GF"]
    orig = entry.sides[0]

    def flipped(order):
        s = orig(order)
        coeffs = s.coeffs()
        coeffs[17] += 1
        return type(s).from_coeffs(coeffs)

    mutated = dataclasses.replace(entry, sides=(flipped,) + entry.sides[1:])
    monkeypatch.setitem(identities.REGISTRY, "PN-GF", mutated)
    result = check_identity("PN-GF", 60)
    assert result.first_mismatch is not None
    assert result.first_mismatch[0] == 17


@pytest.mark.parametrize("identity_id", ["DK-EXPAND", "L6.2", "T5.5", "OSPT-DECOMP"])
@pytest.mark.parametrize("exponent", [5, 23, 50])
def test_any_single_flip_is_located_exactly(identity_id, exponent, monkeypatch):
    entry = identities.REGISTRY[identity_id]
    params = identity_grid(identity_id)[0]
    orig = entry.sides[-1]

    def flipped(order, **kw):
        s = orig(order, **kw)
        coeffs = s.coeffs()
        coeffs[exponent] -= 3
        return type(s).from_coeffs(coeffs)

    mutated = dataclasses.replace(entry, sides=entry.sides[:-1] + (flipped,))
    monkeypatch.setitem(identities.REGISTRY, identity_id, mutated)
    result = check_identity(identity_id, 60, **params)
    assert result.first_mismatch is not None
    got_e, lhs, rhs = result.first_mismatch
    assert got_e == exponent
    assert lhs - rhs == 3


def test_proof_series_registry_contents():
    assert set(list_proof_series()) == {"T1", "H", "T2", "R", "S", "TM", "UM"}


def test_t2_splits_into_r_plus_s():
    t2 = proof_series("T2", 250)
    r = proof_series("R", 250)
    s = proof_series("S", 250)
    assert (r + s).coeffs() == t2.coeffs()


def test_t1_dominates_h_from_11():
    t1 = proof_series("T1", 250)
    h = proof_series("H", 250)
    assert (t1 - h).scan_sign(11, ">=0") == []


def test_t1_scan():
    assert proof_series("T1", 250).scan_sign(106, ">=0") == []


def test_um_scan():
    assert proof_series("UM", 250, m=8).scan_sign(44, ">=0") == []


def test_ospt_decomp_skips_the_two_convention_exponents():
    # below exponent 2 the sides differ by design; the check starts at 2
    entry = identities.REGISTRY["OSPT-DECOMP"]
    lhs = entry.sides[0](30)
    rhs = entry.sides[1](30)
    assert lhs.coeff(0) != rhs.coeff(0)
    assert check_identity("OSPT-DECOMP", 30).passed


@pytest.mark.parametrize(
    "builder, identity_id, params, exponent",
    [
        ("_t1_series", "T6.1", {}, 40),
        ("_t2_series", "EQ7.1", {}, 33),
        ("_tm_series", "T5.5", {"m": 4}, 27),
    ],
)
def test_closed_form_checks_its_proof_series(
    builder, identity_id, params, exponent, monkeypatch
):
    # the closed form calls the proof-series builder, so one wrong
    # coefficient in the proof series fails the identity at that exponent
    orig = getattr(identities, builder)

    def perturbed(order, *args):
        return orig(order, *args) + monomial(1, exponent, order)

    monkeypatch.setattr(identities, builder, perturbed)
    result = check_identity(identity_id, 60, **params)
    assert result.first_mismatch is not None
    got_e, lhs, rhs = result.first_mismatch
    assert got_e == exponent
    assert rhs == lhs + 1


def _ksum_ip_per_term(order, k_start, exp_fn, factors_fn, numer=None, k_end=None):
    # every summand's product built from 1, the unstepped reference
    acc = TruncatedSeries.zero(order)
    k = k_start
    while (k_end is None or k <= k_end) and exp_fn(k) <= order:
        term = _ip(order, *factors_fn(k))
        if numer is not None:
            term = term.mul_one_minus_q_pow(numer)
        acc = acc + term.shift(exp_fn(k))
        k += 1
    return acc


KSUM_CASES = {
    "growing": dict(
        k_start=3, exp_fn=lambda k: k * k + 3 * k,
        factors_fn=lambda k: ((2, k - 1), (2, k - 3)),
    ),
    "moving": dict(
        k_start=3, exp_fn=lambda k: k * k + 7 * k + 8,
        factors_fn=lambda k: ((2, k - 2), (3, k - 2), (k + 1, 1)),
    ),
    "moving, one copy leaves": dict(
        k_start=3, exp_fn=lambda k: k * k + 6 * k + 7,
        factors_fn=lambda k: ((2, k - 1), (2, k - 3), (k, 1)),
    ),
    "shrinking": dict(
        k_start=2, exp_fn=lambda k: 3 * k,
        factors_fn=lambda k: ((k, 12 - k), (2, 1)), k_end=12,
    ),
    "numer": dict(
        k_start=1, exp_fn=lambda k: k * k + 7 * k + 7,
        factors_fn=lambda k: ((2, k), (2, k + 1)), numer=3,
    ),
    "first past order": dict(
        k_start=1, exp_fn=lambda k: 61 + k, factors_fn=lambda k: ((1, k),)
    ),
    # at orders 60 and 350 a factor (1 - q^k) leaves at the top coefficient
    "leaving at the cut": dict(
        k_start=1, exp_fn=lambda k: k + 1, factors_fn=lambda k: ((k, 1), (2, 1))
    ),
    "single summand": dict(
        k_start=4, exp_fn=lambda k: 2 * k,
        factors_fn=lambda k: ((2, k), (3, 1)), k_end=4,
    ),
    "k_end before the first summand": dict(
        k_start=5, exp_fn=lambda k: k, factors_fn=lambda k: ((1, k),), k_end=4
    ),
}


@pytest.mark.parametrize("case", sorted(KSUM_CASES))
@pytest.mark.parametrize("order", [0, 1, 60, 350])
def test_stepped_ksum_matches_per_term_products(case, order):
    got = _ksum_ip(order, **KSUM_CASES[case])
    want = _ksum_ip_per_term(order, **KSUM_CASES[case])
    assert got.coeffs() == want.coeffs()
    assert got.order == order


def test_stepped_ksum_rejects_a_bad_factor():
    with pytest.raises(ValueError):
        _ksum_ip(60, 1, lambda k: k, lambda k: ((2, 3 - k),))
    with pytest.raises(ValueError):
        _ksum_ip(60, 1, lambda k: k, lambda k: ((0, 1),))
    # k * k <= 60 stops at k = 7, so only the last summand is bad
    for bad in ((0, 1), (2, -1)):
        with pytest.raises(ValueError):
            _ksum_ip(60, 1, lambda k: k * k, lambda k: ((2, k),) if k < 7 else (bad,))


def _sweep_identities(order):
    for identity_id in list_identities():
        for params in identity_grid(identity_id):
            check_identity(identity_id, order, **params)


@pytest.mark.parametrize("identity_id", ["T5.3", "T5.4", "T5.5"])
def test_cold_and_warm_crank_memo_agree(identity_id):
    _crank_series.cache_clear()
    cold = [check_identity(identity_id, 200, m=m) for m in (3, 7)]
    hits = _crank_series.cache_info().hits
    warm = [check_identity(identity_id, 200, m=m) for m in (3, 7)]
    assert _crank_series.cache_info().hits == hits + 4  # M(m - 1) and M(m), twice
    assert warm == cold
    assert all(r.passed for r in cold)


def test_crank_memo_series_stay_unchanged():
    # no side mutates a shared series: after a full sweep each cached
    # series still equals a fresh build
    _crank_series.cache_clear()
    _sweep_identities(200)
    info = _crank_series.cache_info()
    assert info.currsize == _GRID_HI + 1
    for m in range(_GRID_HI + 1):
        assert _crank_series(m, 200) == crank_gf(m, 200)
    assert _crank_series.cache_info().hits == info.hits + _GRID_HI + 1


def test_crank_memo_builds_each_series_once_and_stays_bounded(monkeypatch):
    built = []
    monkeypatch.setattr(
        identities, "crank_gf", lambda m, order: built.append((m, order)) or crank_gf(m, order)
    )
    _crank_series.cache_clear()
    for order in (40, 60):
        _sweep_identities(order)
        assert sorted(built) == [(m, order) for m in range(_GRID_HI + 1)]
        assert _crank_series.cache_info().currsize <= _GRID_HI + 1
        built.clear()
    _crank_series.cache_clear()
