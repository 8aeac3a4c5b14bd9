"""Command-line front end.

Subcommands: table, verify, identity, family, ospt, threshold,
plot-unimodal.  Exit codes: 0 all checks passed; 1 a violation or
mismatch, an ``--out`` that cannot be written, or a ``table`` worker
that failed; 2 bad input: argparse's usage text for a malformed command
line, else one ``error:`` line from :func:`main`, the one place that
maps every bad-input check, the CLI's own range checks included, to an
exit code.  ``table`` writes its rows as they are made: from n_max 200
on, rows 0..n_max are split into one contiguous range of about equal
work per available CPU, each range after the first is written by a
forked worker to an unlinked temporary file, and the parent writes the
header and its own range, then copies the workers' files after them in
row order.  An error part way through leaves a partial table and no
worker running.  Every other command builds its whole result, then
writes it in the format selected through one writer, so an error leaves
no partial output.  CSV output always carries a header row and plain
decimal integers; JSON output is stable (sorted keys) so runs with the
same flags are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from operator import add
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TextIO

from . import families, identities, statistics, theorems
from .errors import (
    InvalidK,
    InvalidParams,
    RangeError,
    UnknownIdentity,
    UnknownTheorem,
)

# each family may also be named with its index k appended: pk for p_k
_FAMILY_CLI_NAMES = {f"{name}k": name for name in ("p", "pp", "d", "t", "f", "g", "h")}

DEFAULT_TABLE_N_MAX = 100
DEFAULT_VERIFY_N_MAX = 200
DEFAULT_ORDER = 200


def _to_out(write: Callable[[TextIO], None], out_path: Optional[str]) -> None:
    """Call write with out_path opened for writing, or else with stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _one_or_all(items: List[object]) -> object:
    """A command's results as JSON shows them: a lone result as an object,
    or else the list of them."""
    return items[0] if len(items) == 1 else items


def _write(
    args,
    payload: Optional[Callable[[], object]],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    notes: Iterable[str] = (),
) -> None:
    """Write a buffered command's output to --out or else stdout: under
    --format json the JSON of payload(), or else the CSV header and rows,
    formatted as they come, then the notes.  Only the one selected is built."""
    if args.format == "json":
        lines = [json.dumps(payload(), indent=2, sort_keys=True) + "\n"]
    else:
        rows = itertools.chain([header], rows)
        lines = itertools.chain((",".join(map(str, row)) + "\n" for row in rows), notes)
    _to_out(lambda out: out.writelines(lines), args.out)


def _text_cells(half: List[int]) -> List[str]:
    """The counts of one row for m = -w..w as text, from its right half
    (m = 0..w): each count is converted to text once and mirrored as text."""
    cells = list(map(str, half))
    return cells[:0:-1] + cells


def _csv_row(n_max: int) -> Callable[[int, List[int]], str]:
    """The function giving the CSV lines "n,m,count" of row n of a table to
    n_max from the row's right half."""
    mcol = [f"{m}," for m in range(-n_max, n_max + 1)]  # mcol[n_max + m]

    def text(n: int, half: List[int]) -> str:
        w = len(half) - 1
        cells = map(add, mcol[n_max - w : n_max + w + 1], _text_cells(half))
        return f"{n}," + f"\n{n},".join(cells) + "\n"

    return text


def _json_row(n: int, half: List[int]) -> str:
    """Row n's cells as json.dumps(..., indent=2, sort_keys=True) writes them
    in the table's "rows" list, each {"count", "m", "n"}, from the row's
    right half; led by the separator from the row before, or by a newline
    for row 0."""
    w = len(half) - 1
    return ("\n" if n == 0 else ",\n") + ",\n".join(
        f'    {{\n      "count": {c},\n      "m": {m},\n      "n": {n}\n    }}'
        for m, c in zip(range(-w, w + 1), _text_cells(half))
    )


# Below this n_max a table is written by one process.  It is where a forked
# worker stops paying for itself: on 2 vCPUs (Python 3.11, medians of 40
# runs of `crankq table --stat crank --out`), splitting was 1.3 ms slower
# than one process at n_max 175 and 2.5 ms faster at 225.
_SPLIT_MIN_N_MAX = 200
# The copy-back reads and writes this many characters at a time, so the
# parent never holds a worker's file whole; at 1 MiB, ru_maxrss of
# `crankq table --stat crank --n-max 1500 --out` rose by about 4 MB.
_COPY_CHUNK = 1 << 16


def _row_ranges(n_max: int) -> List[range]:
    """Rows 0..n_max as contiguous ranges of about equal work, one per CPU
    this process may run on, or as one range where forking does not pay:
    without os.fork, on one CPU or below _SPLIT_MIN_N_MAX.  The rows up to
    n cost about n^2 between them, so range i of k ends near
    (n_max + 1) * sqrt(i / k)."""
    import math
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = cpus if hasattr(os, "fork") and n_max >= _SPLIT_MIN_N_MAX else 1
    ends = sorted({round((n_max + 1) * math.sqrt(i / k)) for i in range(1, k + 1)})
    return [range(lo, hi) for lo, hi in zip([0, *ends], ends)]


def _write_rows(
    out: TextIO,
    head: str,
    texts: Callable[[range], Iterable[str]],
    ranges: Sequence[range],
    foot: str,
) -> None:
    """Write head, texts(r) for each range r in order, then foot, to out.
    One forked worker per range after the first writes texts(r) to an
    unlinked temporary file while this process writes head and the first
    range to out; the workers' files are then copied after it in order, in
    fixed-size chunks.  A worker that fails is reported (its traceback on
    stderr, then ChildProcessError here) instead of copied, and on any
    error every worker still running is killed and reaped."""
    import os
    import shutil
    import signal
    import tempfile

    workers = []  # (pid, rows, file) of each worker not yet reaped, in row order
    try:
        sys.stdout.flush()  # a worker must not inherit unwritten output
        for rows in ranges[1:]:
            tmp = tempfile.TemporaryFile("w+", encoding="utf-8")
            try:
                pid = os.fork()
            except BaseException:
                tmp.close()
                raise
            if pid == 0:  # the worker, which must never return into this stack
                status = 1
                try:
                    tmp.writelines(texts(rows))
                    tmp.flush()
                    status = 0
                except BaseException:  # the worker's top level: report, exit 1
                    import traceback

                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            workers.append((pid, rows, tmp))
        out.write(head)
        out.writelines(texts(ranges[0]))
        while workers:
            pid, rows, tmp = workers[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            with tmp:
                if status:
                    raise ChildProcessError(
                        f"the worker writing rows {rows.start}..{rows.stop - 1} "
                        f"exited with status {status}"
                    )
                tmp.seek(0)
                shutil.copyfileobj(tmp, out, _COPY_CHUNK)
        out.write(foot)
    finally:
        for pid, _, tmp in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            tmp.close()


def cmd_table(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        raise RangeError("--n-max must be nonnegative")
    halves = statistics.crank_halves if args.stat == "crank" else statistics.rank_halves
    if args.format == "json":
        head = f'{{\n  "n_max": {n_max},\n  "rows": ['
        row_text = _json_row
        foot = f'\n  ],\n  "stat": {json.dumps(args.stat)}\n}}\n'
    else:
        head, row_text, foot = "n,m,count\n", _csv_row(n_max), ""

    def texts(rows: range) -> Iterator[str]:
        return map(row_text, rows, halves(rows.stop - 1, rows.start))

    ranges = _row_ranges(n_max)
    _to_out(lambda out: _write_rows(out, head, texts, ranges, foot), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.suite is not None and args.from_n is not None:
        raise RangeError("--from applies to a single theorem, not a suite")
    if args.suite == "paper":
        reports = theorems.verify_suite(args.n_max)
    else:
        overrides = None if args.from_n is None else {"n_from": args.from_n}
        reports = [theorems.verify(args.theorem, args.n_max, overrides)]
    rows = (
        (r.theorem_id, r.n_from, r.n_to, r.checked, len(r.violations), r.status)
        for r in reports
    )
    notes = (
        f"# violation {r.theorem_id} {v.point}: {v.lhs} vs {v.rhs}\n"
        for r in reports
        for v in r.violations[:20]
    )
    _write(
        args,
        lambda: _one_or_all([r.as_dict() for r in reports]),
        ("id", "n_from", "n_to", "checked", "violations", "status"),
        rows,
        notes,
    )
    return 0 if all(r.passed for r in reports) else 1


def cmd_identity(args) -> int:
    params = {k: v for k, v in (("m", args.m), ("k", args.k)) if v is not None}
    grid = [params] if params else identities.identity_grid(args.id)
    results = [identities.check_identity(args.id, args.order, **p) for p in grid]

    def payload() -> object:
        return _one_or_all([
            {
                "id": r.id,
                "params": r.params,
                "order": r.order,
                "status": r.status,
                "first_mismatch": None if r.first_mismatch is None
                else dict(zip(("exponent", "lhs", "rhs"), r.first_mismatch)),
            }
            for r in results
        ])

    def rows() -> Iterator[Sequence[object]]:
        for r in results:
            params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            mm = "" if r.first_mismatch is None else r.first_mismatch[0]
            yield (r.id, params, r.order, r.status, mm)

    header = ("id", "params", "order", "status", "mismatch_exponent")
    _write(args, payload, header, rows())
    return 0 if all(r.passed for r in results) else 1


def cmd_family(args) -> int:
    if args.n_max < 0:
        raise RangeError("--n-max must be nonnegative")
    name = _FAMILY_CLI_NAMES.get(args.name, args.name)
    coeffs = families.family_series(name, args.k, args.n_max).coeffs()
    _write(
        args,
        lambda: {
            "family": name,
            "k": args.k,
            "values": [{"n": n, "value": c} for n, c in enumerate(coeffs)],
        },
        ("n", "value"),
        enumerate(coeffs),
    )
    return 0


def cmd_ospt(args) -> int:
    if args.n_max < 1:
        raise RangeError("--n-max must be >= 1")
    values = statistics.ospt(args.n_max)
    pvec = statistics.partition_numbers(args.n_max)
    rows = [(n, values[n], pvec[n]) for n in range(1, args.n_max + 1)]
    header = ("n", "ospt", "p")
    _write(args, lambda: [dict(zip(header, row)) for row in rows], header, rows)
    return 0


def cmd_threshold(args) -> int:
    found = theorems.find_threshold(args.theorem, args.n_max)
    stated = theorems.stated_threshold(args.theorem)
    _write(
        args,
        lambda: {
            "id": args.theorem,
            "n_max": args.n_max,
            "empirical_threshold": found,
            "stated_threshold": stated,
        },
        ("id", "empirical_threshold", "stated_threshold"),
        [(args.theorem, "" if found is None else found, stated)],
    )
    return 0 if found is not None else 1


def cmd_plot_unimodal(args) -> int:
    if args.n < 2:
        raise RangeError("--n must be >= 2")
    n = args.n
    half = statistics.crank_half(n)
    _write(args, None, ("m", "count"), ((m, half[abs(m)]) for m in range(-(n - 1), n)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crankq",
        description="partition statistics, q-series identities and "
        "inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("table", help="emit a crank or rank count table")
    p.add_argument("--stat", choices=("crank", "rank"), required=True)
    p.add_argument("--n-max", type=int, default=DEFAULT_TABLE_N_MAX)
    add_common(p, cmd_table)

    p = sub.add_parser("verify", help="scan one theorem or the whole suite")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", metavar="ID", default=None)
    which.add_argument("--suite", metavar="NAME", choices=("paper",), default=None)
    p.add_argument("--n-max", type=int, default=DEFAULT_VERIFY_N_MAX)
    p.add_argument("--from", dest="from_n", type=int, default=None,
                   help="override the scan's starting n")
    add_common(p, cmd_verify)

    p = sub.add_parser("identity", help="check one identity from the registry")
    p.add_argument("--id", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    add_common(p, cmd_identity)

    p = sub.add_parser("family", help="emit one family's values")
    p.add_argument(
        "--name", required=True,
        choices=sorted(set(_FAMILY_CLI_NAMES) | set(_FAMILY_CLI_NAMES.values())),
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=DEFAULT_TABLE_N_MAX)
    add_common(p, cmd_family)

    p = sub.add_parser("ospt", help="emit n, ospt(n), p(n) rows")
    p.add_argument("--n-max", type=int, default=DEFAULT_TABLE_N_MAX)
    add_common(p, cmd_ospt)

    p = sub.add_parser("threshold", help="locate the empirical threshold")
    p.add_argument("--theorem", metavar="ID", required=True)
    p.add_argument("--n-max", type=int, default=DEFAULT_VERIFY_N_MAX)
    add_common(p, cmd_threshold)

    p = sub.add_parser("plot-unimodal", help="emit m, count data for one row")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_plot_unimodal, format="csv")  # CSV only, no --format

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnknownTheorem as exc:
        print(f"error: unknown theorem {exc}", file=sys.stderr)
    except UnknownIdentity as exc:
        print(f"error: unknown identity {exc}", file=sys.stderr)
    except (InvalidK, InvalidParams, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
