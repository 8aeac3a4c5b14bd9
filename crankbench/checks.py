"""Output checks for the benchmark workloads.

Each check reads what one child process wrote and returns a list of
problems; an empty list means the output is correct.  None of this runs
inside a timed region, and none of it uses crankq: partition numbers come
from Euler's pentagonal-number recurrence below.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

Problems = List[str]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_problems(path: str, want: Optional[str]) -> Problems:
    if want is None:
        return []
    got = sha256_file(path)
    return [] if got == want else [f"output digest {got[:16]} differs from the recorded {want[:16]}"]


def partition_numbers(n_max: int) -> List[int]:
    """p(0..n_max) by p(n) = sum_k (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        acc, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            acc += sign * p[n - g1]
            g2 = g1 + k
            if g2 <= n:
                acc += sign * p[n - g2]
            k += 1
        p[n] = acc
    return p


# --------------------------------------------------------------------------
# suite: `crankq verify --suite paper --format json`
# --------------------------------------------------------------------------


def check_suite(path: str, n_max: int, expected: dict) -> Problems:
    """Every report passes, each theorem checked exactly the recorded
    number of points (a run that skips points fails), and the bytes match
    the recorded digest."""
    try:
        with open(path, encoding="utf-8") as fh:
            reports = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    want = expected["checked"]
    got_ids = [r.get("id") for r in reports] if isinstance(reports, list) else None
    if got_ids != list(want):
        return [f"report ids {got_ids} are not the suite {list(want)}"]
    problems = []
    for r in reports:
        tid = r["id"]
        if r.get("status") != "pass" or r.get("violations"):
            problems.append(f"{tid}: status {r.get('status')!r}")
        if r.get("checked") != want[tid]:
            problems.append(f"{tid}: checked {r.get('checked')} points, recorded {want[tid]}")
        if r.get("range", {}).get("n_to") != n_max:
            problems.append(f"{tid}: n_to {r.get('range', {}).get('n_to')} != {n_max}")
    return problems + digest_problems(path, expected.get("sha256"))


# --------------------------------------------------------------------------
# identities: the sweep's result file
# --------------------------------------------------------------------------


def _neg_from(coeffs: List[int], start: int) -> Optional[int]:
    for i in range(start, len(coeffs)):
        if coeffs[i] < 0:
            return i
    return None


def proof_problems(series: Dict[str, List[int]]) -> Problems:
    """The scans the paper's proofs rest on, applied to the proof series:
    T1 >= 0 from 106, T1 - H >= 0 from 11, T2 >= 0 from 44, R + S = T2,
    and for each m: UM >= 0 and TM - UM >= 0 from 44."""
    problems = []

    def nonneg(label, coeffs, start):
        bad = _neg_from(coeffs, start)
        if bad is not None:
            problems.append(f"{label} is negative at q^{bad}")

    def diff(a, b):
        return [x - y for x, y in zip(a, b)]

    t1, h, t2 = series["proof:T1:"], series["proof:H:"], series["proof:T2:"]
    nonneg("T1", t1, 106)
    nonneg("T1 - H", diff(t1, h), 11)
    nonneg("T2", t2, 44)
    if [r + s for r, s in zip(series["proof:R:"], series["proof:S:"])] != t2:
        problems.append("R + S != T2")
    for key, tm in series.items():
        if key.startswith("proof:TM:"):
            m = key.rsplit(":", 1)[1]
            um = series[f"proof:UM:{m}"]
            nonneg(f"UM({m})", um, 44)
            nonneg(f"TM({m}) - UM({m})", diff(tm, um), 44)
    return problems


def identity_digest(results: dict) -> str:
    """Digest of the sweep's results, independent of the visiting order."""
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def check_identities(path: str, cases: List[str], expected: dict) -> Problems:
    """Every identity case passes, every proof series passes its scans,
    every requested case was answered, and the results match the record."""
    try:
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable results: {exc}"]
    if sorted(results) != sorted(cases):
        missing = sorted(set(cases) - set(results))
        return [f"answered {len(results)} of {len(cases)} cases; missing {missing[:5]}"]
    problems = []
    series = {}
    for key, value in results.items():
        if key.startswith("identity:"):
            if value.get("status") != "pass":
                problems.append(f"{key}: {value}")
        else:
            series[key] = value["coeffs"]
    try:
        problems += proof_problems(series)
    except KeyError as exc:
        problems.append(f"proof series {exc} missing")
    want = expected.get("sha256")
    if want is not None and identity_digest(results) != want:
        problems.append("results differ from the recorded digest")
    return problems


# --------------------------------------------------------------------------
# table-export: `crankq table --stat crank` CSV
# --------------------------------------------------------------------------


def check_crank_csv(path: str, n_max: int) -> Problems:
    """Rows n = 0..n_max, each over m = -n..n in order, summing to p(n),
    symmetric in m, and meeting Dyson's sum m^2 M(m,n) = 2n p(n)."""
    problems: Problems = []
    p = partition_numbers(n_max)
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "n,m,count\n":
            return ["header is not n,m,count"]
        lines = iter(fh)
        for n in range(n_max + 1):
            counts = []
            for m in range(-n, n + 1):
                line = next(lines, "")
                fields = line.rstrip("\n").split(",")
                if len(fields) != 3 or fields[0] != str(n) or fields[1] != str(m):
                    return problems + [f"expected row n={n} m={m}, got {line.strip()!r}"]
                counts.append(int(fields[2]))
            if sum(counts) != p[n]:
                problems.append(f"row {n} sums to {sum(counts)}, p({n}) = {p[n]}")
            if counts != counts[::-1]:
                problems.append(f"row {n} is not symmetric")
            moment = sum((m * m) * c for m, c in zip(range(-n, n + 1), counts))
            if moment != 2 * n * p[n]:
                problems.append(f"row {n}: sum m^2 M(m,n) = {moment} != 2n p(n)")
            if len(problems) > 10:
                return problems
        if next(lines, None) is not None:
            problems.append(f"rows beyond n = {n_max}")
    return problems
