"""Shared fixtures: the expensive tables are built once per session."""

from __future__ import annotations

import tracemalloc

import pytest

from crankq.statistics import crank_table, rank_table
from crankq.theorems import VerifyContext


@pytest.fixture(scope="session")
def ctx() -> VerifyContext:
    return VerifyContext()


@pytest.fixture(scope="session")
def cranks500():
    return crank_table(500)


@pytest.fixture(scope="session")
def ranks500():
    return rank_table(500)


@pytest.fixture(scope="session")
def pvec1000(ctx):
    return ctx.pvec(1000)


@pytest.fixture
def traced_peak():
    """The function giving the tracemalloc peak, in bytes, of one call of
    run() made in this process."""

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
