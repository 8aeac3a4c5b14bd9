#!/usr/bin/env python3
"""crankq end-to-end benchmark.

    python3 crankbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 crankbench/run.py --self-test
    python3 crankbench/run.py --reference
    python3 crankbench/run.py --record-expected

Each workload runs in fresh single-threaded child processes, one at a
time, for about ``--seconds`` of measured time; the source tree under
``src/`` is imported directly, so there is nothing to build.  The seed
picks the workload's exact size from a narrow band (and, for
``identities``, the order the cases are visited); seed 0 gives the
nominal size.  Every child's output is checked outside the timed region,
and a failed check counts as a failed run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
wall_s (spawn to exit, median), peak_rss_mb (the child's ru_maxrss,
median) and setup_s (spawn until crankq is imported, median of the
import-only children run after each measured one).  With ``--trace 1``
untraced and traced children alternate, and the last line carries the
per-layer metrics of the traced ones (see spans.py) plus
trace.overhead_s.  The line before it records
the run environment and the error rate.  Results are refused (exit 3)
when the live kernel backend differs from the one in baseline.json.

``--self-test`` shows that each output check rejects corrupted output,
``--reference`` times the single reference calls recorded in
baseline.json, and ``--record-expected`` regenerates expected.json (the
checked-point counts and output digests every later run is held to) and
belongs only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import threading
import time
from pathlib import Path
from statistics import median

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
BASELINE = HERE / "baseline.json"

# Nominal size first; each band is about +-0.5% around it so that the
# size a seed picks moves wall time by little more than the run-to-run noise.
SIZES = {
    "suite": (400, 398, 399, 401, 402),
    "identities": (350, 348, 349, 351, 352),
    "table-export": (1500, 1494, 1497, 1503, 1506),
}
WARMUP_PROBES = 3
SETUP_PROBES_PER_CHILD = 2
RUN_LIMIT_S = 160.0  # every run must exit within 180 s

CLOCK = time.CLOCK_MONOTONIC


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(tmp: Path, mode_args: list, spans_path: str = "-", timeout: float = RUN_LIMIT_S) -> dict:
    """Run one child to completion; wall time is spawn to exit, set-up time
    spawn to the child's ready mark, and peak RSS its own ru_maxrss."""
    ready_path = tmp / "ready.json"
    ready_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(ready_path), spans_path, *map(str, mode_args)]
    with open(tmp / "child.log", "wb") as log:
        actions = [(os.POSIX_SPAWN_DUP2, log.fileno(), 1), (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        t0 = time.clock_gettime(CLOCK)
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
        pidfd = os.pidfd_open(pid)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Timer(max(timeout, 1.0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            kill()
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
            killer.join()
            os.close(pidfd)
        t1 = time.clock_gettime(CLOCK)
    info = json.loads(ready_path.read_text()) if ready_path.exists() else None
    return {
        "wall_s": t1 - t0,
        "setup_s": info["ready"] - t0 if info else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out.is_set(),
        "info": info,
        "log": (tmp / "child.log").read_text(errors="replace")[-2000:],
    }


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pick_size(workload: str, seed: int) -> int:
    sizes = SIZES[workload]
    return sizes[0] if seed == 0 else random.Random(f"{workload}:{seed}").choice(sizes)


def identity_cases(expected: dict, seed: int) -> list:
    cases = list(expected["identities"]["cases"])
    if seed != 0:
        random.Random(f"identities-order:{seed}").shuffle(cases)
    return cases


# --------------------------------------------------------------------------
# the three workloads: child arguments and output checks
# --------------------------------------------------------------------------


class Workload:
    """One workload at one size: the child's arguments and the checks on
    what it wrote."""

    def __init__(self, name: str, size: int, seed: int, tmp: Path, expected: dict):
        self.name, self.size, self.tmp, self.expected = name, size, tmp, expected
        self.out = tmp / "out"
        self.cases = identity_cases(expected, seed) if name == "identities" else None
        self._validated = {}  # table-export: digest -> content problems

    def args(self) -> list:
        n, out = self.size, self.out
        if self.name == "suite":
            return ["cli", "verify", "--suite", "paper", "--n-max", n, "--format", "json", "--out", out]
        if self.name == "table-export":
            return ["cli", "table", "--stat", "crank", "--n-max", n, "--out", out]
        cases_path = self.tmp / "cases.json"
        cases_path.write_text(json.dumps(self.cases))
        return ["identities", n, cases_path, out]

    def check(self, r: dict) -> list:
        """Problems with one child run: its exit, then what it wrote."""
        found = [f"exit code {r['exit']}"] if r["exit"] != 0 else []
        if r["timed_out"]:
            found.append("killed at the run's time limit")
        return found + self.problems()

    def problems(self) -> list:
        if not self.out.exists():
            return ["no output written"]
        if self.name == "suite":
            want = self.expected["suite"].get(str(self.size))
            if want is None:
                return [f"no recorded suite expectations at n_max={self.size}"]
            return checks.check_suite(str(self.out), self.size, want)
        if self.name == "identities":
            want = self.expected["identities"]["orders"].get(str(self.size), {})
            return checks.check_identities(str(self.out), self.cases, want)
        digest = checks.sha256_file(str(self.out))
        if digest not in self._validated:
            self._validated[digest] = checks.check_crank_csv(str(self.out), self.size)
        found = list(self._validated[digest])
        want = self.expected["table-export"].get(str(self.size))
        if want is not None and digest != want:
            found.append(f"output digest {digest[:16]} differs from the recorded {want[:16]}")
        return found

    def output_bytes(self) -> int:
        return self.out.stat().st_size if self.name != "identities" and self.out.exists() else 0


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        found = _read(str(ROOT / ".git" / ref)).strip()
        if not found:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    found = line.split()[0]
        head = found
    return head or "unknown (not a git checkout)"


def environment(info: dict) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    mem = next(
        (line.split()[1] + " kB" for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        f"{os.sysconf('SC_PHYS_PAGES') * os.sysconf('SC_PAGE_SIZE') // 1024} kB",
    )
    return {
        "backend": info["backend"],
        "python": info["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total": mem,
        "git_commit": git_commit(),
    }


# --------------------------------------------------------------------------
# one benchmark run
# --------------------------------------------------------------------------


def fail(message: str, code: int = 2):
    print(f"crankbench: {message}", file=sys.stderr)
    sys.exit(code)


def fresh_tmp() -> Path:
    tmp = WORK / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def probe_setup(tmp: Path, count: int) -> list:
    """Set-up times of ``count`` import-only children."""
    probes = [spawn(tmp, ["setup"]) for _ in range(count)]
    bad = [p for p in probes if p["exit"] != 0 or p["info"] is None]
    if bad:
        fail(f"crankq does not import:\n{bad[0]['log']}", 1)
    info = probes[0]["info"]
    if not Path(info["crankq_file"]).is_relative_to(ROOT / "src"):
        fail(f"imported crankq from {info['crankq_file']}, not from {ROOT / 'src'}", 1)
    return probes


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.clock_gettime(CLOCK)
    expected = load_json(EXPECTED)
    baseline = load_json(BASELINE)
    size = pick_size(workload, seed)
    tmp = fresh_tmp()
    try:
        # warm-up children fill the bytecode and page caches; the set-up
        # probes that count run between the measured children, so their
        # median sees the same machine as the measurements
        env = environment(probe_setup(tmp, WARMUP_PROBES)[0]["info"])
        setup_times = []
        if env["backend"] != baseline["backend"]:
            fail(f"backend {env['backend']!r} differs from the baseline's "
                 f"{baseline['backend']!r}; results from different backends "
                 "are not comparable", 3)
        wl = Workload(workload, size, seed, tmp, expected)
        theorem_ids = list(expected["suite"][str(SIZES["suite"][0])]["checked"])
        samples = []
        measured = 0.0
        while True:
            traced = trace and len(samples) % 2 == 1
            spans_path = tmp / "spans.bin"
            left = RUN_LIMIT_S - (time.clock_gettime(CLOCK) - started)
            r = spawn(tmp, wl.args(), str(spans_path) if traced else "-", timeout=left)
            problems = wl.check(r)
            sample = {k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "exit")}
            sample.update(traced=traced, problems=problems[:10])
            if traced and not problems:
                dump = spans.load(str(spans_path))
                agg = spans.aggregate(dump)
                sample["layers"] = spans.layer_metrics(
                    agg, dump["counts"], theorem_ids, wl.output_bytes())
                sample["layer_shares"] = spans.layer_shares(agg, r["wall_s"])
            for path in (wl.out, spans_path):
                if path.exists():
                    path.unlink()
            samples.append(sample)
            if not trace:
                setup_times += [p["setup_s"] for p in probe_setup(tmp, SETUP_PROBES_PER_CHILD)]
            measured += r["wall_s"]
            elapsed = time.clock_gettime(CLOCK) - started
            kinds = {s["traced"] for s in samples}
            if r["timed_out"] or elapsed + r["wall_s"] > RUN_LIMIT_S:
                break
            # stop where one more child would overshoot by more than half
            if measured + measured / len(samples) / 2 > seconds and (
                not trace or kinds == {True, False}
            ):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    run_problems = []
    shares = None
    if trace:
        traced = [s for s in samples if s.get("layers")]
        plain = [s for s in samples if not s["traced"]]
        metrics = spans.median_metrics([s["layers"] for s in traced]) if traced else {}
        counts = [{k: s["layers"][k] for k in spans.EXACT_COUNTS} for s in traced]
        if any(c != counts[0] for c in counts):
            failed += 1
            run_problems.append("traced counts differ between children")
        if traced and plain:
            metrics["trace.overhead_s"] = (
                median(s["wall_s"] for s in traced) - median(s["wall_s"] for s in plain))
            shares = traced[0]["layer_shares"]
    else:
        metrics = {
            "wall_s": median(s["wall_s"] for s in samples),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in samples),
            "setup_s": median(setup_times),
        }
    declared = load_json(ROOT / "BENCHMARK.json")["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(units) != set(metrics):
        fail(f"metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(metrics))}", 1)

    record = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": int(trace), "env": env, "attempted": len(samples), "failed": failed,
        "error_rate": failed / len(samples), "layer_shares": shares,
        "problems": list(dict.fromkeys(run_problems + [p for s in samples for p in s["problems"]]))[:10],
        "samples": [{k: v for k, v in s.items() if k not in ("layers", "layer_shares")}
                    for s in samples],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "size", "env", "error_rate", "problems", "layer_shares")}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# --------------------------------------------------------------------------
# self-test, reference runs, recorded expectations
# --------------------------------------------------------------------------


def _rewrite_csv(path: Path, n: int, edits: dict) -> None:
    """Add edits[m] to the count at (m, n) of a crank CSV."""
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        if fields[0] == str(n) and int(fields[1]) in edits:
            lines[i] = f"{n},{fields[1]},{int(fields[2]) + edits[int(fields[1])]}\n"
    path.write_text("".join(lines))


def self_test() -> int:
    """Run each workload once at a known-good size, then show that every
    check rejects a deliberately corrupted copy of the output."""
    tmp = fresh_tmp()
    expected = load_json(EXPECTED)
    verdicts = []

    def expect(label: str, problems: list, reject: bool) -> None:
        ok = bool(problems) == reject
        verdicts.append(ok)
        said = problems[0] if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {said}")

    try:
        # suite
        wl = Workload("suite", SIZES["suite"][0], 0, tmp, expected)
        r = spawn(tmp, wl.args())
        good = wl.out.read_text()
        expect("suite, program output", wl.check(r), False)
        expect("suite, exit code 1", wl.check(dict(r, exit=1)), True)

        def corrupt_reports(edit) -> None:
            reports = json.loads(good)
            edit(reports)
            wl.out.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")

        corrupt_reports(lambda reps: reps[5].update(
            status="fail", violations=[{"point": {"n": 50, "m": 1}, "lhs": 1, "rhs": 2}]))
        expect("suite, one theorem failing", wl.problems(), True)
        corrupt_reports(lambda reps: reps[0].update(checked=reps[0]["checked"] - 1))
        expect("suite, one point skipped", wl.problems(), True)
        corrupt_reports(lambda reps: reps.pop())
        expect("suite, last theorem dropped", wl.problems(), True)
        wl.out.write_text(good.replace("\n", "\n ", 1))
        expect("suite, same reports in other bytes", wl.problems(), True)

        # identities: the mathematical checks alone first, then the digest
        wl = Workload("identities", SIZES["identities"][0], 0, tmp, expected)
        r = spawn(tmp, wl.args())
        good = json.loads(wl.out.read_text())
        expect("identities, program output", wl.check(r), False)
        no_digest = dict(expected, identities=dict(expected["identities"], orders={}))
        loose = Workload("identities", wl.size, 0, tmp, no_digest)

        def corrupt_results(label, edit, checker) -> None:
            results = json.loads(json.dumps(good))
            edit(results)
            wl.out.write_text(json.dumps(results))
            expect(label, checker.problems(), True)

        corrupt_results("identities, one identity failing", lambda res: res[
            "identity:L5.1:m=3"].update(status="fail", first_mismatch=[40, 1, 2]), loose)
        corrupt_results("identities, one case missing",
                        lambda res: res.pop("identity:PN-GF:"), loose)
        corrupt_results("identities, T1 negative past 106",
                        lambda res: res["proof:T1:"]["coeffs"].__setitem__(200, -1), loose)
        corrupt_results("identities, R + S != T2",
                        lambda res: res["proof:R:"]["coeffs"].__setitem__(90, 0), loose)
        corrupt_results("identities, TM(7) below UM(7)", lambda res: res["proof:TM:m=7"][
            "coeffs"].__setitem__(120, res["proof:UM:m=7"]["coeffs"][120] - 1), loose)
        corrupt_results("identities, H changed below 11 (digest only)",
                        lambda res: res["proof:H:"]["coeffs"].__setitem__(5, 7), wl)

        # table-export at a small size whose digest is taken from its own run
        n = 60
        good_sha = None
        wl = Workload("table-export", n, 0, tmp, expected)
        r = spawn(tmp, wl.args())
        good_sha = checks.sha256_file(str(wl.out))
        good = wl.out.read_text()
        wl.expected = dict(expected, **{"table-export": {str(n): good_sha}})
        expect("table-export, program output", wl.check(r), False)
        for label, edits in (
            ("row sum (one count +1)", {0: 1}),
            ("symmetry (mass moved from m=-1 to m=1)", {1: 1, -1: -1}),
            ("Dyson moment (mass moved from |m|=2 to |m|=1)", {1: 1, -1: 1, 2: -1, -2: -1}),
        ):
            wl.out.write_text(good)
            _rewrite_csv(wl.out, 20, edits)
            expect(f"table-export, {label}", checks.check_crank_csv(str(wl.out), n), True)
        wl.out.write_text(good.rsplit("\n", 2)[0] + "\n")
        expect("table-export, last cell dropped", checks.check_crank_csv(str(wl.out), n), True)
        wl.out.write_text(good.replace("\n0,0,1\n", "\n0,0,01\n"))
        expect("table-export, same counts in other bytes", wl.problems(), True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(verdicts)} of {len(verdicts)} self-test cases behaved")
    return 0 if all(verdicts) else 1


REFERENCE_CALLS = (
    ("rank_table", 1000), ("crank_table", 1000), ("verify_suite", 500), ("identity_sweep", 200),
)


def reference() -> int:
    """Time each reference call once in its own child (pure in-process
    time of the call, plus the child's wall time and peak RSS)."""
    tmp = fresh_tmp()
    rows = {}
    try:
        for name, n in REFERENCE_CALLS:
            out = tmp / "ref.json"
            r = spawn(tmp, ["reference", name, n, out], timeout=900)
            if r["exit"] != 0:
                fail(f"{name}({n}) failed:\n{r['log']}", 1)
            rows[f"{name}({n})"] = {
                "call_s": load_json(out)["seconds"],
                "wall_s": r["wall_s"],
                "peak_rss_mb": r["peak_rss_mb"],
            }
            print(json.dumps({f"{name}({n})": rows[f"{name}({n})"]}), flush=True)
        env = environment(r["info"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"env": env, "reference_runs": rows}, indent=1))
    return 0


def record_expected() -> int:
    """Run every size of every band once and record what later runs are
    held to: suite checked counts and digests, the identity case list and
    result digests, table digests.  Refuses to record a failing output."""
    tmp = fresh_tmp()
    rec = {"suite": {}, "identities": {"cases": [], "orders": {}}, "table-export": {}}
    try:
        r = spawn(tmp, ["cases", tmp / "cases.json"])
        rec["identities"]["cases"] = load_json(tmp / "cases.json")
        for name, sizes in SIZES.items():
            for size in sorted(sizes):
                wl = Workload(name, size, 0, tmp, rec)
                r = spawn(tmp, wl.args())
                if r["exit"] != 0:
                    fail(f"{name} at {size} exited {r['exit']}:\n{r['log']}", 1)
                path = str(wl.out)
                if name == "suite":
                    reports = load_json(wl.out)
                    if any(rep["status"] != "pass" for rep in reports):
                        fail(f"suite at {size} has failing reports", 1)
                    rec["suite"][str(size)] = {
                        "checked": {rep["id"]: rep["checked"] for rep in reports},
                        "sha256": checks.sha256_file(path),
                    }
                elif name == "identities":
                    problems = checks.check_identities(path, wl.cases, {})
                    if problems:
                        fail(f"identities at {size}: {problems[:3]}", 1)
                    rec["identities"]["orders"][str(size)] = {
                        "sha256": checks.identity_digest(load_json(wl.out))}
                else:
                    problems = checks.check_crank_csv(path, size)
                    if problems:
                        fail(f"table-export at {size}: {problems[:3]}", 1)
                    rec["table-export"][str(size)] = checks.sha256_file(path)
                print(f"recorded {name} at {size}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    EXPECTED.write_text(json.dumps(rec, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(SIZES))
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--reference", action="store_true")
    mode.add_argument("--record-expected", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crankq" / "__init__.py").is_file():
        fail(f"no crankq source tree at {ROOT / 'src' / 'crankq'}")
    if args.self_test:
        return self_test()
    if args.reference:
        return reference()
    if args.record_expected:
        return record_expected()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
