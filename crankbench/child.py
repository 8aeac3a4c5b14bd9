"""One benchmark child process: import crankq, mark it ready, run one job.

    python3 child.py READY_PATH SPANS_PATH MODE [ARGS...]

The monotonic clock reading taken right after ``crankq`` and its CLI are
imported goes to READY_PATH with the live backend, so the parent can
measure set-up time from spawn to ready.  SPANS_PATH ``-`` runs untraced;
otherwise the layers are traced and the spans dumped there at exit.

MODE is one of
    setup                           import and exit
    cli ARGV...                     crankq.cli.main(ARGV), exit with its code
    identities ORDER CASES OUT      run the cases listed in CASES, write OUT
    cases OUT                       write the registry's identity sweep cases
    reference CASE N OUT            time one reference call, write OUT
"""

import sys
import time

import crankq
import crankq.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402

from crankq import identities, statistics, theorems  # noqa: E402


def case_key(kind: str, ident: str, params: dict) -> str:
    return f"{kind}:{ident}:" + ";".join(f"{k}={v}" for k, v in sorted(params.items()))


def parse_key(key: str):
    kind, ident, raw = key.split(":")
    params = {k: int(v) for k, v in (kv.split("=") for kv in raw.split(";") if kv)}
    return kind, ident, params


def sweep_cases(proof_top: int = 15) -> list:
    """Every identity over its default grid, then every proof series (over
    m = param_min .. proof_top where it takes m)."""
    keys = [
        case_key("identity", ident, params)
        for ident in identities.list_identities()
        for params in identities.identity_grid(ident)
    ]
    for sid in identities.list_proof_series():
        spec = identities.PROOF_SERIES[sid]
        if spec["param"] is None:
            keys.append(case_key("proof", sid, {}))
        else:
            keys.extend(
                case_key("proof", sid, {spec["param"]: v})
                for v in range(spec["param_min"], proof_top + 1)
            )
    return keys


def run_identities(order: int, cases: list) -> dict:
    results = {}
    for key in cases:
        kind, ident, params = parse_key(key)
        if kind == "identity":
            r = identities.check_identity(ident, order, **params)
            results[key] = {"status": r.status, "first_mismatch": r.first_mismatch}
        else:
            results[key] = {"coeffs": identities.proof_series(ident, order, **params).coeffs()}
    return results


REFERENCE = {
    "rank_table": lambda n: statistics.rank_table(n),
    "crank_table": lambda n: statistics.crank_table(n),
    "verify_suite": lambda n: theorems.verify_suite(n),
    "identity_sweep": lambda n: [
        identities.check_identity(i, n, **p)
        for i in identities.list_identities()
        for p in identities.identity_grid(i)
    ],
}


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def main(argv: list) -> int:
    ready_path, spans_path, mode, *args = argv
    write_json(ready_path, {
        "ready": READY,
        "backend": getattr(crankq, "BACKEND", "python"),
        "crankq_file": os.path.abspath(crankq.__file__),
        "python": sys.version.split()[0],
    })
    tracer = None
    if spans_path != "-":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    code = 0
    if mode == "cli":
        code = crankq.cli.main(args)
    elif mode == "identities":
        order, cases_path, out = int(args[0]), args[1], args[2]
        with open(cases_path, encoding="utf-8") as fh:
            cases = json.load(fh)
        write_json(out, run_identities(order, cases))
    elif mode == "cases":
        write_json(args[0], sweep_cases())
    elif mode == "reference":
        name, n, out = args[0], int(args[1]), args[2]
        t0 = time.perf_counter()
        REFERENCE[name](n)
        write_json(out, {"seconds": time.perf_counter() - t0})
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        code = 2
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
