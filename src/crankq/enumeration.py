"""Brute-force ground truth: partition generation, crank, rank.

Everything here is deliberately naive.  The generating-function paths
elsewhere in the package are validated against these counts and against
the rank DP below, so this module must stay independent of the series
engine.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from .errors import EmptyPartition, SoftLimitExceeded
from .tables import DistributionTable

Partition = Tuple[int, ...]

# Above this, exhaustive enumeration gets slow; the table builders have no cap.
DEFAULT_ENUM_LIMIT = 45


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order.

    n = 0 yields exactly the empty partition.  Tests should depend only on
    the set of partitions, not on this order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        # find rightmost part > 1, fold the tail of ones into it
        i = len(parts) - 1
        ones = 0
        while i >= 0 and parts[i] == 1:
            ones += 1
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        rem = ones + 1
        del parts[i + 1 :]
        # redistribute rem into parts of size <= parts[i]
        cap = parts[i]
        while rem > 0:
            take = cap if rem >= cap else rem
            parts.append(take)
            rem -= take


def crank(partition: Sequence[int]) -> int:
    """Largest part when there are no ones; otherwise the number of parts
    exceeding the count of ones, minus that count."""
    if not partition:
        raise EmptyPartition("crank of the empty partition is a table convention")
    ones = sum(1 for p in partition if p == 1)
    if ones == 0:
        return max(partition)
    over = sum(1 for p in partition if p > ones)
    return over - ones


def rank(partition: Sequence[int]) -> int:
    """Largest part minus the number of parts."""
    if not partition:
        raise EmptyPartition("rank of the empty partition is a table convention")
    return max(partition) - len(partition)


def _check_cap(n: int, limit: int) -> None:
    if n > limit:
        raise SoftLimitExceeded(
            f"enumeration of n={n} exceeds the cap {limit}; raise limit= if you "
            "really want this, or use the DP/generating-function paths"
        )


def crank_distribution_bruteforce(
    n: int, limit: int = DEFAULT_ENUM_LIMIT
) -> Dict[int, int]:
    """Counts of crank values over all partitions of n.

    n = 1 returns the standard overridden table {-1: 1, 0: -1, 1: 1}; n = 0
    counts the empty partition as crank 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_cap(n, limit)
    if n == 0:
        return {0: 1}
    if n == 1:
        return {-1: 1, 0: -1, 1: 1}
    counts: Dict[int, int] = {}
    for p in partitions_of(n):
        c = crank(p)
        counts[c] = counts.get(c, 0) + 1
    return counts


def rank_distribution_bruteforce(
    n: int, limit: int = DEFAULT_ENUM_LIMIT
) -> Dict[int, int]:
    """Counts of rank values over all partitions of n (no n = 1 override)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_cap(n, limit)
    if n == 0:
        return {0: 1}
    counts: Dict[int, int] = {}
    for p in partitions_of(n):
        r = rank(p)
        counts[r] = counts.get(r, 0) + 1
    return counts


def rank_dp(n_max: int) -> list:
    """Joint-count dynamic program for the rank distribution.

    Counts partitions by (largest part a, number of parts b) and
    accumulates over m = a - b.  Layer b is derived from layer b-1 through
    the prefix sums C(j, a) = #{partitions of j, largest part <= a, exactly
    b-1 parts}, so each cell costs O(1).

    Returns rows[n] = counts for m = -(n-1) .. n-1 (row 0 is [1] by the
    empty-partition convention).
    """
    rows = [[1]]
    for n in range(1, n_max + 1):
        rows.append([0] * (2 * n - 1))
    if n_max < 1:
        return rows

    size = n_max + 1
    # layer b = 1: C(j, a) = 1 iff 1 <= j <= a; T(n, a, 1) = 1 iff a == n
    cprev = [[0] * size for _ in range(size)]
    for j in range(1, size):
        cprev[j][j:] = [1] * (size - j)
        rows[j][(j - 1) + (j - 1)] += 1  # m = n - 1 at offset n - 1

    for b in range(2, n_max + 1):
        ccur = [[0] * size for _ in range(size)]
        for n in range(b, size):
            crow = ccur[n]
            nrow = rows[n]
            off = n - 1 - b
            run = 0
            amax = n - b + 1  # need n - a >= b - 1 parts' worth of weight
            for a in range(1, amax + 1):
                j = n - a
                t = cprev[j][a if a <= j else j]
                if t:
                    nrow[a + off] += t
                    run += t
                crow[a] = run
            if run:
                crow[amax + 1:] = [run] * (size - amax - 1)
        cprev = ccur
    return rows


def rank_distribution_dp(n_max: int) -> DistributionTable:
    """Rank counts for every n <= n_max via the joint-count DP: an O(n_max^3)
    test oracle for :func:`crankq.statistics.rank_table`.

    Partitions are counted by (largest part a, number of parts b) with the
    prefix-sum recurrence over layers of b, and accumulated over m = a - b.
    Negative m is produced directly by the DP, so the conjugation symmetry
    of the table is a genuine check rather than a construction artifact.

    Counts are exact Python ints at any n_max.  Time is O(n_max^3)
    prefix-sum steps and memory O(n_max^2): keep n_max to a few hundred.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = rank_dp(n_max)
    min_m = [0] + [-(n - 1) for n in range(1, n_max + 1)]
    return DistributionTable(stat="rank", n_max=n_max, min_m=min_m, rows=rows)
