"""Command-line front end.

Subcommands: table, verify, identity, family, ospt, threshold,
plot-unimodal.  Exit codes: 0 all checks passed; 1 a violation or
mismatch, or an ``--out`` that cannot be written; 2 bad input, which is a
malformed command line (argparse's usage text) or a value the library
rejects (one ``error:`` line, mapped by :func:`main` alone).  Each command
builds its whole result before writing, so an error leaves no partial
output.  CSV output always carries a header row and plain decimal
integers; JSON output is stable (sorted keys) so runs with the same flags
are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from operator import add
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import families, identities, statistics, theorems
from .errors import (
    InvalidK,
    InvalidParams,
    RangeError,
    UnknownIdentity,
    UnknownTheorem,
)

_FAMILY_CLI_NAMES = {
    "pk": "p",
    "ppk": "pp",
    "dk": "d",
    "tk": "t",
    "fk": "f",
    "gk": "g",
    "hk": "h",
}

DEFAULT_TABLE_N_MAX = 100
DEFAULT_VERIFY_N_MAX = 200
DEFAULT_ORDER = 200


def _emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    """Write the text chunks in order, to out_path or else to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """CSV lines, each ending in a newline; rows are formatted as they come."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json(obj: object) -> List[str]:
    return [json.dumps(obj, indent=2, sort_keys=True) + "\n"]


def _json_table(
    stat: str, n_max: int, rows: Iterable[Iterable[Sequence[int]]]
) -> Iterator[str]:
    """The bytes of json.dumps({"stat", "n_max", "rows": [{"n", "m", "count"}]},
    indent=2, sort_keys=True) plus a newline, written one string per table
    row; each item of ``rows`` holds that row's (n, m, count) cells."""
    yield f'{{\n  "n_max": {n_max},\n  "rows": ['
    sep = "\n"
    for cells in rows:
        text = ",\n".join(
            f'    {{\n      "count": {c},\n      "m": {m},\n      "n": {n}\n    }}'
            for n, m, c in cells
        )
        if text:
            yield sep + text
            sep = ",\n"
    yield ("]" if sep == "\n" else "\n  ]") + f',\n  "stat": {json.dumps(stat)}\n}}\n'


def _table_rows(halves: Iterable[List[int]]) -> Iterator[Tuple[int, int, List[str]]]:
    """(n, w, the counts of row n for m = -w..w as text), one per streamed
    right half; each count is converted to text once and mirrored as text."""
    for n, half in enumerate(halves):
        cells = list(map(str, half))
        yield n, len(half) - 1, cells[:0:-1] + cells


def cmd_table(args) -> int:
    n_max = args.n_max
    if n_max < 0:
        print("error: --n-max must be nonnegative", file=sys.stderr)
        return 2
    if args.stat == "crank":
        halves = statistics.crank_halves(n_max)
    else:
        halves = statistics.rank_halves(n_max)
    rows = _table_rows(halves)
    if args.format == "json":
        cells = (zip(itertools.repeat(n), range(-w, w + 1), c) for n, w, c in rows)
        _emit(_json_table(args.stat, n_max, cells), args.out)
    else:
        mcol = [f"{m}," for m in range(-n_max, n_max + 1)]  # mcol[n_max + m]
        lines = (
            f"{n}," + f"\n{n},".join(map(add, mcol[n_max - w : n_max + w + 1], c)) + "\n"
            for n, w, c in rows
        )
        _emit(itertools.chain(_csv(("n", "m", "count"), ()), lines), args.out)
    return 0


def _verify_output(reports, fmt: str, out_path: Optional[str]) -> int:
    if fmt == "json":
        payload = [r.as_dict() for r in reports]
        _emit(_json(payload if len(payload) != 1 else payload[0]), out_path)
    else:
        rows = [
            (
                r.theorem_id,
                r.n_from,
                r.n_to,
                r.checked,
                len(r.violations),
                r.status,
            )
            for r in reports
        ]
        header = ("id", "n_from", "n_to", "checked", "violations", "status")
        notes = (
            f"# violation {r.theorem_id} {v.point}: {v.lhs} vs {v.rhs}\n"
            for r in reports
            for v in r.violations[:20]
        )
        _emit(itertools.chain(_csv(header, rows), notes), out_path)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args) -> int:
    if args.suite is not None and args.from_n is not None:
        print("error: --from applies to a single theorem, not a suite",
              file=sys.stderr)
        return 2
    if args.suite == "paper":
        reports = theorems.verify_suite(args.n_max)
    else:
        overrides = None if args.from_n is None else {"n_from": args.from_n}
        reports = [theorems.verify(args.theorem, args.n_max, overrides)]
    return _verify_output(reports, args.format, args.out)


def cmd_identity(args) -> int:
    params = {k: v for k, v in (("m", args.m), ("k", args.k)) if v is not None}
    grid = [params] if params else identities.identity_grid(args.id)
    results = [identities.check_identity(args.id, args.order, **p) for p in grid]
    if args.format == "json":
        payload = [
            {
                "id": r.id,
                "params": r.params,
                "order": r.order,
                "status": r.status,
                "first_mismatch": (
                    None
                    if r.first_mismatch is None
                    else {
                        "exponent": r.first_mismatch[0],
                        "lhs": r.first_mismatch[1],
                        "rhs": r.first_mismatch[2],
                    }
                ),
            }
            for r in results
        ]
        _emit(_json(payload if len(payload) != 1 else payload[0]), args.out)
    else:
        rows = []
        for r in results:
            params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            mm = "" if r.first_mismatch is None else r.first_mismatch[0]
            rows.append((r.id, params, r.order, r.status, mm))
        _emit(
            _csv(("id", "params", "order", "status", "mismatch_exponent"), rows),
            args.out,
        )
    return 0 if all(r.passed for r in results) else 1


def cmd_family(args) -> int:
    if args.n_max < 0:
        print("error: --n-max must be nonnegative", file=sys.stderr)
        return 2
    name = _FAMILY_CLI_NAMES.get(args.name, args.name)
    series = families.family_series(name, args.k, args.n_max)
    coeffs = series.coeffs()
    if args.format == "json":
        payload = {
            "family": name,
            "k": args.k,
            "values": [{"n": n, "value": c} for n, c in enumerate(coeffs)],
        }
        _emit(_json(payload), args.out)
    else:
        _emit(_csv(("n", "value"), enumerate(coeffs)), args.out)
    return 0


def cmd_ospt(args) -> int:
    if args.n_max < 1:
        print("error: --n-max must be >= 1", file=sys.stderr)
        return 2
    values = statistics.ospt(args.n_max)
    pvec = statistics.partition_numbers(args.n_max)
    rows = [(n, values[n], pvec[n]) for n in range(1, args.n_max + 1)]
    if args.format == "json":
        payload = [{"n": n, "ospt": o, "p": p} for n, o, p in rows]
        _emit(_json(payload), args.out)
    else:
        _emit(_csv(("n", "ospt", "p"), rows), args.out)
    return 0


def cmd_threshold(args) -> int:
    found = theorems.find_threshold(args.theorem, args.n_max)
    stated = theorems.stated_threshold(args.theorem)
    if args.format == "json":
        payload = {
            "id": args.theorem,
            "n_max": args.n_max,
            "empirical_threshold": found,
            "stated_threshold": stated,
        }
        _emit(_json(payload), args.out)
    else:
        rows = [(args.theorem, "" if found is None else found, stated)]
        _emit(_csv(("id", "empirical_threshold", "stated_threshold"), rows), args.out)
    return 0 if found is not None else 1


def cmd_plot_unimodal(args) -> int:
    if args.n < 2:
        print("error: --n must be >= 2", file=sys.stderr)
        return 2
    n = args.n
    half = statistics.crank_half(n)
    rows = [(m, half[abs(m)]) for m in range(-(n - 1), n)]
    _emit(_csv(("m", "count"), rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crankq",
        description="partition statistics, q-series identities and "
        "inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="csv"):
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("table", help="emit a crank or rank count table")
    p.add_argument("--stat", choices=("crank", "rank"), required=True)
    p.add_argument("--n-max", type=int, default=DEFAULT_TABLE_N_MAX)
    add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="scan one theorem or the whole suite")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", metavar="ID", default=None)
    which.add_argument("--suite", metavar="NAME", choices=("paper",), default=None)
    p.add_argument("--n-max", type=int, default=DEFAULT_VERIFY_N_MAX)
    p.add_argument("--from", dest="from_n", type=int, default=None,
                   help="override the scan's starting n")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identity", help="check one identity from the registry")
    p.add_argument("--id", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("family", help="emit one family's values")
    p.add_argument(
        "--name", required=True,
        choices=sorted(set(_FAMILY_CLI_NAMES) | set(_FAMILY_CLI_NAMES.values())),
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=DEFAULT_TABLE_N_MAX)
    add_common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("ospt", help="emit n, ospt(n), p(n) rows")
    p.add_argument("--n-max", type=int, default=DEFAULT_TABLE_N_MAX)
    add_common(p)
    p.set_defaults(func=cmd_ospt)

    p = sub.add_parser("threshold", help="locate the empirical threshold")
    p.add_argument("--theorem", metavar="ID", required=True)
    p.add_argument("--n-max", type=int, default=DEFAULT_VERIFY_N_MAX)
    add_common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("plot-unimodal", help="emit m, count data for one row")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_plot_unimodal)

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
