"""Dense per-n distribution tables for partition statistics.

A table holds, for each n up to ``n_max``, the counts of a statistic over
its full m-range: [-n, n] for the crank, [-(n-1), n-1] for the rank (row 0
is the empty-partition row {0: 1} for both).  Counts outside the stored
range are zero by construction; :meth:`DistributionTable.get` (one cell)
and :func:`slice_row` (a run of cells in one row, table or not) say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


def slice_row(row: List[int], min_m: int, m_lo: int, m_hi: int) -> List[int]:
    """The counts at m_lo <= m < m_hi of one row holding row[m - min_m], as
    a new list; zero outside the stored m-range, empty when m_hi <= m_lo."""
    width = max(m_hi - m_lo, 0)
    lo = m_lo - min_m
    hi = lo + width
    a, b = max(lo, 0), min(hi, len(row))
    if a >= b:
        return [0] * width
    return [0] * (a - lo) + row[a:b] + [0] * (hi - b)


@dataclass(frozen=True)
class DistributionTable:
    """Counts[m, n] for one statistic, 0 <= n <= n_max, dense in m."""

    stat: str
    n_max: int
    min_m: List[int]  # per-row lowest m
    rows: List[List[int]]  # rows[n][m - min_m[n]]

    def get(self, m: int, n: int) -> int:
        """The count at (m, n); 0 outside the stored m-range or for n < 0."""
        if n < 0:
            return 0
        if n > self.n_max:
            raise IndexError(f"n={n} beyond table n_max={self.n_max}")
        lo = self.min_m[n]
        idx = m - lo
        if idx < 0 or idx >= len(self.rows[n]):
            return 0
        return self.rows[n][idx]

    def m_range(self, n: int) -> range:
        lo = self.min_m[n]
        return range(lo, lo + len(self.rows[n]))

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])

    def row_dict(self, n: int) -> Dict[int, int]:
        lo = self.min_m[n]
        return {lo + i: c for i, c in enumerate(self.rows[n])}

    def is_symmetric(self) -> bool:
        """True when every row satisfies counts[m] == counts[-m]."""
        for n in range(self.n_max + 1):
            row = self.rows[n]
            if row != row[::-1]:
                return False
        return True


@dataclass(frozen=True)
class CumulativeTable:
    """Prefix sums over m of a distribution table.

    ``le(m, n)`` is the number of partitions of n with statistic <= m;
    below the stored range it is 0, above it the full mass (the row total,
    p(n) for honest rows).
    """

    stat: str
    n_max: int
    min_m: List[int]
    rows: List[List[int]]  # rows[n][i] = sum of counts for m <= min_m[n] + i

    def le(self, m: int, n: int) -> int:
        if n < 0:
            return 0
        if n > self.n_max:
            raise IndexError(f"n={n} beyond table n_max={self.n_max}")
        lo = self.min_m[n]
        idx = m - lo
        if idx < 0:
            return 0
        row = self.rows[n]
        if idx >= len(row):
            return row[-1]
        return row[idx]

    def total(self, n: int) -> int:
        return self.rows[n][-1]


def cumulative(table: DistributionTable) -> CumulativeTable:
    """Prefix-sum a distribution table along m."""
    out_rows: List[List[int]] = []
    for n in range(table.n_max + 1):
        acc = 0
        row = []
        for c in table.rows[n]:
            acc += c
            row.append(acc)
        out_rows.append(row)
    return CumulativeTable(
        stat=table.stat, n_max=table.n_max, min_m=list(table.min_m), rows=out_rows
    )
