"""CLI contract: exit codes, CSV/JSON shapes, golden rows."""

from __future__ import annotations

import ast
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os

import pytest

from crankq import cli, families, identities, theorems
from crankq.errors import (
    InvalidK,
    InvalidParams,
    RangeError,
    UnknownIdentity,
    UnknownTheorem,
)
from crankq.series import monomial


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_table_crank_golden_rows(capsys):
    code, out = run(capsys, "table", "--stat", "crank", "--n-max", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "m", "count"]
    assert ["4", "0", "1"] in rows
    assert ["1", "0", "-1"] in rows


def test_table_rank_golden_row(capsys):
    code, out = run(capsys, "table", "--stat", "rank", "--n-max", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert ["3", "2", "1"] in rows


def test_table_csv_round_trip(capsys):
    from crankq.statistics import crank_table

    code, out = run(capsys, "table", "--stat", "crank", "--n-max", "9")
    assert code == 0
    _, rows = parse_csv(out)
    table = crank_table(9)
    rebuilt = {}
    for n_s, m_s, c_s in rows:
        rebuilt[(int(n_s), int(m_s))] = int(c_s)
    for n in range(10):
        for m in table.m_range(n):
            assert rebuilt[(n, m)] == table.get(m, n)
    assert len(rows) == sum(2 * n + 1 for n in range(10))


def test_verify_pass_and_violation_exit_codes(capsys):
    code, _ = run(capsys, "verify", "--theorem", "THM1.7", "--n-max", "80")
    assert code == 0
    code, out = run(
        capsys, "verify", "--theorem", "THM1.9", "--n-max", "120", "--from", "2"
    )
    assert code == 1
    assert "fail" in out


def test_verify_json_schema(capsys):
    code, out = run(
        capsys, "verify", "--theorem", "THM1.6", "--n-max", "40", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"id", "params", "range", "checked", "violations", "status"}
    assert payload["id"] == "THM1.6"
    assert payload["status"] == "pass"
    assert payload["violations"] == []
    assert payload["range"]["n_from"] == 14


def test_verify_suite_small(capsys):
    code, out = run(capsys, "verify", "--suite", "paper", "--n-max", "60")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["id", "n_from", "n_to", "checked", "violations", "status"]
    assert all(row[5] == "pass" for row in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify"], "one of the arguments --theorem --suite is required"),
        (["verify", "--suite", "bogus"], "argument --suite: invalid choice"),
    ],
    ids=["no-theorem-or-suite", "unknown-suite"],
)
def test_verify_command_line_errors_print_usage(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: crankq verify ")
    assert f"crankq verify: error: {message}" in captured.err


def test_verify_usage_errors(capsys):
    assert cli.main(["verify", "--theorem", "NOPE"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--theorem", "THM1.7", "--n-max", "10"]) == 2


def test_corrupted_registry_entry_yields_exit_1(monkeypatch, capsys):
    entry = identities.REGISTRY["T6.1"]
    orig = entry.sides[1]

    def bad(order):
        return orig(order) + monomial(1, 12, order)

    mutated = dataclasses.replace(entry, sides=(entry.sides[0], bad))
    monkeypatch.setitem(identities.REGISTRY, "T6.1", mutated)
    code, out = run(capsys, "identity", "--id", "T6.1", "--order", "60")
    assert code == 1
    assert "fail" in out
    assert ",12" in out  # mismatch exponent is reported


def test_identity_pass_and_param_grid(capsys):
    code, out = run(capsys, "identity", "--id", "T6.1", "--order", "150")
    assert code == 0
    code, out = run(capsys, "identity", "--id", "T5.4", "--order", "80", "--m", "3")
    assert code == 0
    code, out = run(capsys, "identity", "--id", "PK-FORMS", "--order", "60")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 14  # grid k = 2..15


def test_identity_errors(capsys):
    assert cli.main(["identity", "--id", "NOPE"]) == 2
    capsys.readouterr()
    assert cli.main(["identity", "--id", "T5.5", "--m", "1"]) == 2


def test_family_row(capsys):
    code, out = run(capsys, "family", "--name", "pk", "--k", "4", "--n-max", "20")
    assert code == 0
    _, rows = parse_csv(out)
    assert ["12", "7"] in rows
    assert cli.main(["family", "--name", "pk", "--k", "1", "--n-max", "5"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "family", "--name", "gk", "--k", "0", "--n-max", "4")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows == [["0", "1"], ["1", "0"], ["2", "0"], ["3", "0"], ["4", "0"]]


@pytest.mark.parametrize("name", ["pk", "d"])
def test_family_negative_n_max_exits_2(capsys, name):
    code = cli.main(["family", "--name", name, "--k", "4", "--n-max", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --n-max must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--stat", "crank", "--n-max", "-1"],
        ["ospt", "--n-max", "0"],
        ["identity", "--id", "T5.3", "--order", "-1"],
        ["threshold", "--theorem", "THM1.9", "--n-max", "1"],
        ["threshold", "--theorem", "NOPE"],
        ["verify", "--suite", "paper", "--from", "5"],
        ["verify", "--suite", "paper", "--n-max", "10"],
    ],
    ids=" ".join,
)
def test_bad_input_exits_2_with_message(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        (["verify", "--theorem", "NOPE"], "error: unknown theorem 'NOPE'\n"),
        (["threshold", "--theorem", "NOPE"], "error: unknown theorem 'NOPE'\n"),
        (["identity", "--id", "NOPE"], "error: unknown identity 'NOPE'\n"),
    ],
    ids=["verify", "threshold", "identity"],
)
def test_unknown_id_messages(capsys, argv, err):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", err)


# each command with the library call behind it that may raise an input error
LIBRARY_CALLS = {
    "verify": (["verify", "--theorem", "THM1.7"], theorems, "verify"),
    "suite": (["verify", "--suite", "paper"], theorems, "verify_suite"),
    "identity": (["identity", "--id", "T6.1"], identities, "check_identity"),
    "family": (["family", "--name", "pk", "--k", "4"], families, "family_series"),
    "threshold": (["threshold", "--theorem", "THM1.9"], theorems, "find_threshold"),
}

INPUT_ERRORS = [
    (UnknownTheorem("X"), "error: unknown theorem 'X'\n"),
    (UnknownIdentity("X"), "error: unknown identity 'X'\n"),
    (InvalidK("bad k"), "error: bad k\n"),
    (InvalidParams("bad params"), "error: bad params\n"),
    (RangeError("bad range"), "error: bad range\n"),
]


def _raising(exc):
    def call(*args, **kwargs):
        raise exc

    return call


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
@pytest.mark.parametrize(
    "exc, err", INPUT_ERRORS, ids=[type(e).__name__ for e, _ in INPUT_ERRORS]
)
def test_main_maps_input_errors_to_exit_2(monkeypatch, capsys, command, exc, err):
    argv, module, name = LIBRARY_CALLS[command]
    monkeypatch.setattr(module, name, _raising(exc))
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_other_errors_propagate(monkeypatch, capsys, command):
    argv, module, name = LIBRARY_CALLS[command]
    monkeypatch.setattr(module, name, _raising(ValueError("a bug")))
    with pytest.raises(ValueError, match="a bug"):
        cli.main(argv)
    assert capsys.readouterr().out == ""


def test_no_command_catches_errors():
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    commands = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert len(commands) == 7
    for node in commands:
        assert not any(isinstance(n, ast.Try) for n in ast.walk(node)), node.name


def test_verify_rejects_a_theorem_with_a_suite(capsys):
    code = cli.main(["verify", "--theorem", "THM1.7", "--suite", "paper"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert "argument --suite: not allowed with argument --theorem" in captured.err


def test_io_error_exit_code(capsys, tmp_path, monkeypatch):
    # --out is opened before any worker is forked, above the cutoff too
    forks = _on_cpus(monkeypatch, 2)
    path = tmp_path / "no-such-dir" / "x.csv"
    for n_max in (3, cli._SPLIT_MIN_N_MAX):
        argv = ["table", "--stat", "crank", "--n-max", str(n_max), "--out", str(path)]
        assert cli.main(argv) == 1
        err = f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
        assert capsys.readouterr() == ("", err)
    assert forks == []


def test_ospt_rows(capsys):
    code, out = run(capsys, "ospt", "--n-max", "50")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "ospt", "p"]
    assert rows[2] == ["3", "1", "3"]
    assert len(rows) == 50


def test_threshold_output(capsys):
    code, out = run(capsys, "threshold", "--theorem", "THM1.9", "--n-max", "120")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "THM1.9"
    assert int(rows[0][1]) <= 39
    assert rows[0][2] == "39"


def test_plot_unimodal(tmp_path, capsys):
    out_path = tmp_path / "row44.csv"
    code = cli.main(["plot-unimodal", "--n", "44", "--out", str(out_path)])
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["m", "count"]
    assert len(rows) == 87
    counts = [int(c) for _, c in rows]
    ms = [int(m) for m, _ in rows]
    peak = max(counts)
    assert counts[ms.index(0)] == peak
    # weakly unimodal: nondecreasing up to the peak of m = 0, then nonincreasing
    zero_idx = ms.index(0)
    assert all(counts[i] <= counts[i + 1] for i in range(zero_idx))
    assert all(counts[i] >= counts[i + 1] for i in range(zero_idx, len(counts) - 1))


def test_plot_unimodal_small_n(tmp_path, capsys):
    assert cli.main(["plot-unimodal", "--n", "1"]) == 2
    capsys.readouterr()
    out_path = tmp_path / "row2.csv"
    assert cli.main(["plot-unimodal", "--n", "2", "--out", str(out_path)]) == 0
    _, rows = parse_csv(out_path.read_text())
    assert rows == [["-1", "0"], ["0", "0"], ["1", "0"]]


def test_byte_stable_output(capsys):
    _, first = run(capsys, "table", "--stat", "crank", "--n-max", "15")
    _, second = run(capsys, "table", "--stat", "crank", "--n-max", "15")
    assert first == second
    _, j1 = run(capsys, "verify", "--theorem", "THM1.2", "--n-max", "50",
                "--format", "json")
    _, j2 = run(capsys, "verify", "--theorem", "THM1.2", "--n-max", "50",
                "--format", "json")
    assert j1 == j2


# sha256 of the CSV as written before the table output was streamed
TABLE_CSV_SHA256 = {
    "crank": "e379d0e2ca1e0d988cbae2f060eea04a2a71a9258208a22090313f3d5c472788",
    "rank": "7067942ee5800b00e5b6505b30d257c6fbae90fc79dbd5858715db7a1885f0fb",
}


@pytest.mark.parametrize("stat", sorted(TABLE_CSV_SHA256))
def test_table_csv_golden_digest(stat, tmp_path, capsys):
    argv = ["table", "--stat", stat, "--n-max", "60"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_CSV_SHA256[stat]
    path = tmp_path / "t.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()


# sha256 of the JSON as written before the table output was streamed
TABLE_JSON_SHA256 = {
    "crank": "ea8bfd2feea27b3a498bd7c24a32d8c9af33e94f01ba44002282afb26d0f3dd1",
    "rank": "2cbc2b4adcfb7b89c594f97606a638a9abe92220180c324609aff29559e01b09",
}


@pytest.mark.parametrize("stat", sorted(TABLE_JSON_SHA256))
def test_table_json_golden_digest(stat, tmp_path, capsys):
    argv = ["table", "--stat", stat, "--n-max", "60", "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_JSON_SHA256[stat]
    path = tmp_path / "t.json"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()


# exit code and sha256 of stdout of every buffered command, in CSV and in
# JSON, as written before these commands shared one writer
BUFFERED_SHA256 = {
    "verify --theorem THM1.9 --n-max 120 --from 2": (
        1, "1952c4b1b3e7239311417d460dcd517023629bc5e2a39f3dab889644057e2f39"
    ),
    "verify --theorem THM1.9 --n-max 120 --from 2 --format json": (
        1, "01cfc0712f9715d5626862b881f919b4c1be2a62ac8b1b063919ab211cff6524"
    ),
    "verify --suite paper --n-max 60": (
        0, "9067415bd985ee48111c9d91465669edcee1907ababde79b243fdf3a9eaeae08"
    ),
    "verify --suite paper --n-max 60 --format json": (
        0, "cb3f489ad77ee8f54de4a6a5b159a33cd4203940b3ef82cfe4aec07c0c95b217"
    ),
    "identity --id T5.4 --order 80": (
        0, "0103b7ce253f39ed661b5125ff16e4ef68e04d276dda26bf20e7a1af3f4c62dc"
    ),
    "identity --id T5.4 --order 80 --format json": (
        0, "6a82d8aef61e61558cddab88bfcc9a81eb9c1465ff078cf67e3671c722664d4a"
    ),
    "identity --id T5.4 --order 80 --m 3": (
        0, "23221b3fbe9841c6556c0f3d49de1d7fdd463f7b7ff07e3680f7ec52f4fa05b3"
    ),
    # one result is written as a single object, not a list of one
    "identity --id T5.4 --order 80 --m 3 --format json": (
        0, "3fd6dff742a500b391436eb014eddacecc9dba3635ae12e5b4bd57aa1d283abb"
    ),
    "family --name gk --k 2 --n-max 20": (
        0, "a91f559beadede8e38e5c7631e936be3c5822a78b1e74aab5bc2647fcaf54251"
    ),
    "family --name gk --k 2 --n-max 20 --format json": (
        0, "f33db37a45119e69af3c31f2fd2043e8adfdb99fe02cee419648ddcf1ef4d1b2"
    ),
    "ospt --n-max 50": (
        0, "4879c998b8b037e746d46a49852f7e68aee921b38462b66ab84c39ad2876a138"
    ),
    "ospt --n-max 50 --format json": (
        0, "0a0d99a5c571b6120c9b1c12b0cbb6a4db4ec89b67918af467e6dcd353b16b01"
    ),
    "threshold --theorem THM1.9 --n-max 120": (
        0, "e74ee56bd221ca49d400b68533bf59abf38c364f812bc9bdf9e1c662a1d834c3"
    ),
    "threshold --theorem THM1.9 --n-max 120 --format json": (
        0, "05c45cbd01c1a6d62904e2e75b4c6b5623661dbb28ff15ff9ff2ae62236adec0"
    ),
    "plot-unimodal --n 44": (
        0, "699b2727920411594a56c9c529dee06dde064ebcafd180f3dc7a44e2862c668c"
    ),
}


@pytest.mark.parametrize("line", list(BUFFERED_SHA256))
def test_buffered_output_golden_digest(line, tmp_path, capsys):
    argv = line.split()
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == BUFFERED_SHA256[line]
    assert err == ""
    path = tmp_path / "out"
    assert cli.main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("stat", ["crank", "rank"])
@pytest.mark.parametrize("n_max", [0, 1, 7])
def test_table_json_matches_json_dumps(stat, n_max, capsys):
    from crankq.statistics import crank_table, rank_table

    table = (crank_table if stat == "crank" else rank_table)(n_max)
    rows = [
        {"n": n, "m": m, "count": c}
        for n in range(n_max + 1)
        for m, c in zip(table.m_range(n), table.rows[n])
    ]
    payload = {"stat": stat, "n_max": n_max, "rows": rows}
    code, out = run(capsys, "table", "--stat", stat, "--n-max", str(n_max),
                    "--format", "json")
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# the whole output at the smallest sizes, as written by the dense-table route
TABLE_SMALL = {
    ("crank", 0): [(0, 0, 1)],
    ("crank", 1): [(0, 0, 1), (1, -1, 1), (1, 0, -1), (1, 1, 1)],
    ("rank", 0): [(0, 0, 1)],
    ("rank", 1): [(0, 0, 1), (1, 0, 1)],
}


@pytest.mark.parametrize("stat", ["crank", "rank"])
@pytest.mark.parametrize("n_max", [0, 1, 60])
def test_table_streams_without_building_a_table(stat, n_max, monkeypatch, capsys):
    from crankq import statistics
    from crankq.tables import DistributionTable

    def no_table(*args, **kwargs):
        raise AssertionError("crankq table built a dense table")

    monkeypatch.setattr(statistics, "crank_table", no_table)
    monkeypatch.setattr(statistics, "rank_table", no_table)
    monkeypatch.setattr(DistributionTable, "__init__", no_table)
    argv = ["table", "--stat", stat, "--n-max", str(n_max)]
    code, out_csv = run(capsys, *argv)
    assert code == 0
    code, out_json = run(capsys, *argv, "--format", "json")
    assert code == 0
    if n_max == 60:
        assert hashlib.sha256(out_csv.encode()).hexdigest() == TABLE_CSV_SHA256[stat]
        assert hashlib.sha256(out_json.encode()).hexdigest() == TABLE_JSON_SHA256[stat]
    else:
        cells = TABLE_SMALL[stat, n_max]
        assert out_csv == "n,m,count\n" + "".join(f"{n},{m},{c}\n" for n, m, c in cells)
        payload = {
            "stat": stat,
            "n_max": n_max,
            "rows": [{"n": n, "m": m, "count": c} for n, m, c in cells],
        }
        assert out_json == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _on_cpus(monkeypatch, cpus):
    """Make crankq see `cpus` CPUs available and count the workers it forks."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@functools.lru_cache(maxsize=None)
def _dense_table_text(stat, n_max, fmt):
    """The whole `crankq table` output, written from the dense table."""
    from crankq.statistics import crank_table, rank_table

    table = (crank_table if stat == "crank" else rank_table)(n_max)
    cells = [
        (n, m, c)
        for n in range(n_max + 1)
        for m, c in zip(table.m_range(n), table.rows[n])
    ]
    if fmt == "csv":
        return "n,m,count\n" + "".join(f"{n},{m},{c}\n" for n, m, c in cells)
    rows = [{"n": n, "m": m, "count": c} for n, m, c in cells]
    payload = {"stat": stat, "n_max": n_max, "rows": rows}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_row_ranges_split_the_work_evenly(monkeypatch):
    cut = cli._SPLIT_MIN_N_MAX
    for cpus in (1, 2, 3, 8):
        _on_cpus(monkeypatch, cpus)
        assert cli._row_ranges(cut - 1) == [range(cut)]
        for n_max in (cut, 1500):
            ranges = cli._row_ranges(n_max)
            assert len(ranges) == cpus
            assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
            assert ranges[0].start == 0 and ranges[-1].stop == n_max + 1
            # rows 0..n cost about n^2 between them
            work = [r.stop**2 - r.start**2 for r in ranges]
            assert max(work) - min(work) <= 2 * (n_max + 1), work
    monkeypatch.delattr(os, "fork")
    assert cli._row_ranges(1500) == [range(1501)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("stat", ["crank", "rank"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_max", [cli._SPLIT_MIN_N_MAX - 1, cli._SPLIT_MIN_N_MAX])
def test_split_table_is_byte_identical(cpus, stat, fmt, n_max, monkeypatch, tmp_path, capsys):
    # just below the cutoff one process writes the table; at it, one
    # process per CPU; either way the bytes are the dense table's
    forks = _on_cpus(monkeypatch, cpus)
    want = _dense_table_text(stat, n_max, fmt)
    argv = ["table", "--stat", stat, "--n-max", str(n_max), "--format", fmt]
    code, out = run(capsys, *argv)
    assert (code, out) == (0, want)
    path = tmp_path / "t.out"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_text(encoding="utf-8") == want
    assert len(forks) == (2 * (cpus - 1) if n_max >= cli._SPLIT_MIN_N_MAX else 0)
    _assert_no_child_left()


def test_split_table_worker_failure_exits_1(monkeypatch, tmp_path, capsys):
    from crankq import statistics

    n_max = cli._SPLIT_MIN_N_MAX
    forks = _on_cpus(monkeypatch, 3)
    split = cli._row_ranges(n_max)[1].start
    real = statistics._sparse_form_half

    def failing_past_the_split(pvec, n, lead):
        if n >= split:
            raise RuntimeError(f"row {n}")
        return real(pvec, n, lead)

    monkeypatch.setattr(statistics, "_sparse_form_half", failing_past_the_split)
    path = tmp_path / "t.csv"
    code = cli.main(["table", "--stat", "crank", "--n-max", str(n_max), "--out", str(path)])
    assert code == 1
    assert len(forks) == 2
    assert capsys.readouterr() == ("", (
        f"error: the worker writing rows {split}..{cli._row_ranges(n_max)[1].stop - 1} "
        "exited with status 1\n"
    ))
    _assert_no_child_left()


def test_split_table_parent_failure_kills_the_workers(monkeypatch, capsys):
    from crankq import statistics

    forks = _on_cpus(monkeypatch, 3)
    real = statistics._sparse_form_half
    parent = os.getpid()

    def failing_in_the_parent(pvec, n, lead):
        if os.getpid() == parent:
            raise RuntimeError(f"row {n}")
        return real(pvec, n, lead)

    monkeypatch.setattr(statistics, "_sparse_form_half", failing_in_the_parent)
    with pytest.raises(RuntimeError, match="row 1"):
        cli.main(["table", "--stat", "rank", "--n-max", "1500"])
    assert len(forks) == 2
    _assert_no_child_left()


def test_split_table_parent_memory_grows_about_linearly(monkeypatch, tmp_path, traced_peak):
    # the parent copies each worker's file in fixed-size chunks; reading
    # the last range's file whole would hold O(N^2) characters
    _on_cpus(monkeypatch, 2)
    path = str(tmp_path / "t.csv")
    small, large = (
        traced_peak(lambda: cli.main(["table", "--stat", "crank", "--n-max", n, "--out", path]))
        for n in ("300", "600")
    )
    # the row scans' allowance, 1.5 times linear growth
    assert large < 1.5 * 2 * small, (small, large)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_ospt_and_plot_unimodal_stream_rows(n, monkeypatch, capsys):
    from crankq import statistics
    from crankq.tables import DistributionTable

    cranks, ranks = statistics.crank_table(n), statistics.rank_table(n)
    values = statistics.ospt(n, cranks=cranks, ranks=ranks)
    pvec = statistics.partition_numbers(n)

    def no_table(*args, **kwargs):
        raise AssertionError("a row-only command built a dense table")

    monkeypatch.setattr(DistributionTable, "__init__", no_table)
    code, out = run(capsys, "ospt", "--n-max", str(n))
    assert code == 0
    assert out == "n,ospt,p\n" + "".join(
        f"{i},{values[i]},{pvec[i]}\n" for i in range(1, n + 1)
    )
    code, out = run(capsys, "plot-unimodal", "--n", str(n))
    assert code == 0
    assert out == "m,count\n" + "".join(
        f"{m},{cranks.get(m, n)}\n" for m in range(-(n - 1), n)
    )


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code = cli.main(["table", "--stat", "rank", "--n-max", "5", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    header, rows = parse_csv(path.read_text())
    assert header == ["n", "m", "count"]


def test_bad_flag_exits_2(capsys):
    assert cli.main(["table", "--stat", "bogus"]) == 2
    capsys.readouterr()
    assert cli.main(["bogus-command"]) == 2
