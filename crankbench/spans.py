"""Span tracer for the traced benchmark run, and the per-layer metrics.

The child process calls :func:`install` after crankq is imported.  It
wraps crankq's public layer functions from outside the package: every
binding of a wrapped function in a ``crankq`` module namespace is replaced,
so ``from .statistics import crank_gf`` copies are caught too.  Each call
records one span (name, start, end, parent) in flat arrays; nothing is
written until :meth:`Tracer.dump` runs at exit.  Hot per-point accessors
(``DistributionTable.get``, ``CumulativeTable.le``) are counted, not
spanned, so their time stays in the caller's self time.

The parent reads the dump with :func:`load` and derives self time (span
duration minus the durations of its direct children) in
:func:`layer_metrics`.
"""

from __future__ import annotations

import array
import json
import sys
import time
from collections import defaultdict
from statistics import median
from typing import Callable, Dict, List, Optional

# Vector kernels of the series engine.  series.coeff_updates sums, over
# the five elementwise ones, the coefficients each call writes (see _updates).
VECTOR_KERNELS = (
    "geom_divide", "geom_multiply", "vec_add", "vec_sub", "vec_scale",
    "cauchy_mul", "weighted_conv",
)
STATISTICS = ("crank_gf", "crank_table", "rank_table", "partition_numbers", "ospt")
FAMILY_BUILDERS = (
    "family_series", "p_series", "pp_series", "d_series", "t_series",
    "f_series", "g_series", "h_series",
)
# Metrics that are exact counts: two traced children of one workload and
# size must agree on every one of them.
EXACT_COUNTS = frozenset({
    "series.kernel_calls", "series.coeff_updates", "series.geom_divide.calls",
    "enumeration.rank_dp.calls", "statistics.crank_gf.calls", "tables.cells",
    "tables.get.calls", "tables.le.calls", "families.family_series.calls",
    "theorems.checks", "theorems.violations", "theorems.ctx.requests",
    "theorems.ctx.builds", "identities.cases", "cli.output_bytes",
})
# Spans whose presence directly under a VerifyContext request means the
# request built something instead of serving it from the cache.
BUILDER_PREFIXES = ("statistics.", "tables.cumulative", "families.", "enumeration.")


def _updates(name: str, args: tuple) -> int:
    if name in ("geom_divide", "geom_multiply"):
        return max(len(args[0]) - args[1], 0)
    if name in ("vec_add", "vec_sub"):
        return min(len(args[0]), len(args[1]))
    if name == "vec_scale":
        return len(args[0])
    return 0


class Tracer:
    """Spans in four parallel arrays plus a bag of exact counters."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[..., str]] = None,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """fn wrapped so that each call records one span.

        ``name_of(*args)`` names the span per call instead of ``name``;
        ``before(args)`` and ``after(result)`` update counters.
        """
        fixed = self._id(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if name_of is None else self._id(name_of(*args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def counting(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def dump(self, path: str) -> None:
        header = {"n": len(self.start), "names": self.names, "counts": dict(self.counts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _rebind(old: Callable, new: Callable) -> None:
    """Point every crankq module global that is ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "crankq" or modname.startswith("crankq.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _kernel_module():
    try:
        from crankq._backend import kernels
    except ImportError:  # kernels folded into the series module
        from crankq import series as kernels
    return kernels


def install(tracer: Tracer) -> None:
    """Wrap crankq's layer functions so calls are traced into ``tracer``."""
    from crankq import cli, families, identities, statistics, tables, theorems

    counts = tracer.counts

    def wrap(owner, attr: str, name: str, **hooks) -> None:
        fn = getattr(owner, attr, None)
        if fn is not None:
            _rebind(fn, tracer.span(fn, name, **hooks))

    kernels = _kernel_module()
    for kname in VECTOR_KERNELS:
        def count_updates(args, _k=kname):
            counts["series.coeff_updates"] += _updates(_k, args)

        wrap(kernels, kname, "series." + kname, before=count_updates)
    wrap(kernels, "rank_dp", "enumeration.rank_dp")

    for fname in STATISTICS:
        wrap(statistics, fname, "statistics." + fname)
    wrap(tables, "cumulative", "tables.cumulative")
    for fname in FAMILY_BUILDERS:
        wrap(families, fname, "families." + fname)

    def count_identity_case(_result) -> None:
        counts["identities.cases"] += 1

    wrap(identities, "check_identity", "identities.check_identity", after=count_identity_case)
    wrap(identities, "proof_series", "identities.proof_series", after=count_identity_case)

    def count_report(report) -> None:
        counts["theorems.checks"] += report.checked
        counts["theorems.violations"] += len(report.violations)

    wrap(theorems, "verify", "theorems.verify",
         name_of=lambda tid, *rest: "theorems." + tid, after=count_report)
    wrap(theorems, "verify_suite", "theorems.verify_suite")
    ctx_cls = theorems.VerifyContext
    for attr, fn in list(vars(ctx_cls).items()):
        if callable(fn) and not attr.startswith("_"):
            setattr(ctx_cls, attr, tracer.span(fn, "theorems.ctx." + attr))
    wrap(cli, "main", "cli.main")

    tables.DistributionTable.get = tracer.counted(tables.DistributionTable.get, "tables.get.calls")
    tables.CumulativeTable.le = tracer.counted(tables.CumulativeTable.le, "tables.le.calls")
    for cls in (tables.DistributionTable, tables.CumulativeTable):
        def init(self, *args, _orig=cls.__init__, **kwargs):
            _orig(self, *args, **kwargs)
            counts["tables.cells"] += sum(map(len, self.rows))

        cls.__init__ = init


# --------------------------------------------------------------------------
# parent side: from a dump to per-layer metrics
# --------------------------------------------------------------------------


def load(path: str) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    header["name_id"], header["parent"], header["start"], header["end"] = arrays
    return header


def aggregate(dump: dict) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; plus the
    number of VerifyContext requests that built something."""
    names, name_id, parent = dump["names"], dump["name_id"], dump["parent"]
    dur = [e - s for s, e in zip(dump["start"], dump["end"])]
    child = [0.0] * len(dur)
    ctx_built = set()
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
            if names[name_id[p]].startswith("theorems.ctx.") and names[
                name_id[i]
            ].startswith(BUILDER_PREFIXES):
                ctx_built.add(p)
    per_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, nid in enumerate(name_id):
        row = per_name[names[nid]]
        row[0] += 1
        row[1] += dur[i]
        row[2] += dur[i] - child[i]
    return {"spans": dict(per_name), "ctx_builds": len(ctx_built)}


def layer_metrics(agg: dict, counts: dict, theorem_ids, output_bytes: int) -> dict:
    """The per-layer metrics of one traced child, keyed by metric name."""
    spans = agg["spans"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    kernels = ["series." + k for k in VECTOR_KERNELS]
    ctx_requests = sum(row[0] for name, row in spans.items() if name.startswith("theorems.ctx."))
    builds = agg["ctx_builds"]
    out = {
        "series.kernel_calls": sum(calls(k) for k in kernels),
        "series.coeff_updates": counts.get("series.coeff_updates", 0),
        "series.kernel_s": sum(total(k) for k in kernels),
        "series.geom_divide.calls": calls("series.geom_divide"),
        "series.geom_divide.s": total("series.geom_divide"),
        "series.geom_multiply.s": total("series.geom_multiply"),
        "series.vec_add.s": total("series.vec_add"),
        "enumeration.rank_dp.calls": calls("enumeration.rank_dp"),
        "enumeration.rank_dp.s": total("enumeration.rank_dp"),
        "statistics.crank_table.s": total("statistics.crank_table"),
        "statistics.rank_table.s": total("statistics.rank_table"),
        "statistics.partition_numbers.s": total("statistics.partition_numbers"),
        "statistics.ospt.s": total("statistics.ospt"),
        "statistics.crank_gf.calls": calls("statistics.crank_gf"),
        "statistics.crank_gf.s": total("statistics.crank_gf"),
        "tables.cells": counts.get("tables.cells", 0),
        "tables.cumulative.s": total("tables.cumulative"),
        "tables.get.calls": counts.get("tables.get.calls", 0),
        "tables.le.calls": counts.get("tables.le.calls", 0),
        "families.family_series.calls": calls("families.family_series"),
        "families.family_series.s": total("families.family_series"),
        "theorems.checks": counts.get("theorems.checks", 0),
        "theorems.violations": counts.get("theorems.violations", 0),
        "theorems.scan_self_s": sum(self_s("theorems." + t) for t in theorem_ids),
    }
    for tid in theorem_ids:
        out[f"theorems.{tid}.self_s"] = self_s("theorems." + tid)
    out.update({
        "theorems.ctx.requests": ctx_requests,
        "theorems.ctx.builds": builds,
        "theorems.ctx.hit_ratio": (ctx_requests - builds) / ctx_requests if ctx_requests else 0.0,
        "identities.cases": counts.get("identities.cases", 0),
        "identities.self_s": self_s("identities.check_identity") + self_s("identities.proof_series"),
        "identities.proof_series.s": total("identities.proof_series"),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": output_bytes,
    })
    return out


def layer_shares(agg: dict, wall_s: float) -> Dict[str, float]:
    """Self time per layer (the span name up to its first dot) as a share
    of the traced wall time; ``untraced`` is interpreter start, import,
    exit and anything outside a span."""
    shares: Dict[str, float] = defaultdict(float)
    for name, (_calls, _total, own) in agg["spans"].items():
        shares[name.split(".", 1)[0]] += own / wall_s
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def median_metrics(samples: List[dict]) -> dict:
    """Median of each timing over several traced children; exact counts
    are taken from the first (the caller checks that they all agree)."""
    return {
        key: samples[0][key] if key in EXACT_COUNTS else median(s[key] for s in samples)
        for key in samples[0]
    }

