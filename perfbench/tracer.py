"""Span tracing of anchorpriv's public functions, installed from outside the package.

``install`` rebinds each traced function at every place the package holds
it (the defining module and every module that imported the name) and
wraps traced methods on their classes. Each call becomes one span: a name,
the span that was open when it started, and its start and end times. Spans
stay in memory and ``Tracer.dump`` writes them once, when the command ends.
``summarize`` turns a dump into per-name call counts, inclusive seconds and
self seconds, plus the counters the wrappers record.

The command runs single-threaded (``--threads 1``), so one stack of open
spans is enough.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Traced names, in the order the benchmark reports them. Each gets
# "<name>.calls", "<name>.s" (inclusive) and "<name>.self_s".
SPAN_NAMES = (
    "cli.main",
    "geometry.lp_distance",
    "geometry.locate_cell",
    "mechanisms.distribution_at",
    "mechanisms.log_distribution_at",
    "mechanisms.bayesian_remap",
    "interpolation.distribution_at",
    "interpolation.log_distribution_at",
    "audit.violation_ratio",
    "evaluation.expected_loss",
    "evaluation.loss_matrix",
    "evaluation.synth_instance",
    "apo.surrogate_coefficients",
    "apo.build_approx_apo",
    "apo.solve_approx_apo",
    "apo.build_aipo_relaxed",
    "apo.build_coarse_lp",
    "apo.lower_bound",
    "lpcore.solve_lp",
    "lpcore.assemble",
    "lpcore.highs",
    "budget.optimize_allocation",
)

COUNTER_NAMES = (
    "audit.pairs",
    "lpcore.vars",
    "lpcore.rows",
    "lpcore.nnz",
    "lpcore.highs.nit",
    "budget.candidates",
    "budget.failed_candidates",
)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self._open = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        name_id = SPAN_NAMES.index(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        return traced

    def dump(self, path: Path):
        """Write the spans as ``<path>.bin`` (four arrays) and ``<path>.json``."""
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"spans": len(self.span_start), "names": list(SPAN_NAMES),
                "counters": dict(self.counters)}
        Path(f"{path}.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "anchorpriv" or name.startswith("anchorpriv."))]


def rebind(fn, replacement):
    """Replace every module-level binding of ``fn`` inside the package."""
    hits = 0
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)
                hits += 1
    if not hits:
        raise LookupError(f"{fn!r} is not bound in any anchorpriv module")


def install(tracer: Tracer):
    """Trace every function of ``SPAN_NAMES`` except ``cli.main``."""
    from anchorpriv import (apo, audit, budget, evaluation, geometry, interpolation, lpcore,
                            mechanisms)

    counters = tracer.counters

    def trace_function(name, fn, body=None):
        rebind(fn, tracer.wrap(name, body or fn))

    def trace_method(name, cls, attr):
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))

    trace_function("geometry.lp_distance", geometry.lp_distance)
    trace_function("geometry.locate_cell", geometry.locate_cell)

    # Every baseline class the mechanisms module defines, including ones
    # added later, counts under one name per method.
    for cls in vars(mechanisms).values():
        if isinstance(cls, type) and cls.__module__ == mechanisms.__name__:
            for attr in ("distribution_at", "log_distribution_at"):
                if attr in vars(cls):
                    trace_method(f"mechanisms.{attr}", cls, attr)
    trace_function("mechanisms.bayesian_remap", mechanisms.bayesian_remap)
    trace_method("interpolation.distribution_at", interpolation.Mechanism, "distribution_at")
    trace_method("interpolation.log_distribution_at", interpolation.Mechanism,
                 "log_distribution_at")

    violation_ratio = audit.violation_ratio

    def counted_violation_ratio(*args, **kwargs):
        report = violation_ratio(*args, **kwargs)
        counters["audit.pairs"] += int(getattr(report, "pair_count", 0))
        return report

    trace_function("audit.violation_ratio", violation_ratio, counted_violation_ratio)
    trace_function("evaluation.expected_loss", evaluation.expected_loss)
    trace_method("evaluation.loss_matrix", evaluation.LossModel, "loss_matrix")
    trace_function("evaluation.synth_instance", evaluation.synth_instance)

    for stage in ("surrogate_coefficients", "build_approx_apo", "solve_approx_apo",
                  "build_aipo_relaxed", "build_coarse_lp", "lower_bound"):
        trace_function(f"apo.{stage}", getattr(apo, stage))

    trace_function("lpcore.solve_lp", lpcore.solve_lp)
    trace_method("lpcore.assemble", lpcore.LinearProgram, "matrices")
    linprog = lpcore.linprog

    def counted_linprog(c, *args, **kwargs):
        res = linprog(c, *args, **kwargs)
        counters["lpcore.vars"] += len(c)
        for key in ("A_ub", "A_eq"):
            mat = kwargs.get(key)
            if mat is not None:
                counters["lpcore.rows"] += int(mat.shape[0])
                nnz = getattr(mat, "nnz", None)
                counters["lpcore.nnz"] += int(nnz if nnz is not None else (mat != 0).sum())
        counters["lpcore.highs.nit"] += int(getattr(res, "nit", 0))
        return res

    trace_function("lpcore.highs", linprog, counted_linprog)

    optimize_allocation = budget.optimize_allocation

    def counted_optimize_allocation(candidates, evaluator, *args, **kwargs):
        counters["budget.candidates"] += len(candidates)

        def counted_evaluator(bv):
            try:
                return evaluator(bv)
            except Exception:
                counters["budget.failed_candidates"] += 1
                raise

        return optimize_allocation(candidates, counted_evaluator, *args, **kwargs)

    trace_function("budget.optimize_allocation", optimize_allocation,
                   counted_optimize_allocation)


def summarize(path: Path) -> dict:
    """Per-name calls, inclusive and self seconds, and counters of one dump.

    A span's self time is its duration minus its direct children's. A
    name's inclusive time sums only its outermost spans, so a traced
    function reached again below itself is not counted twice.
    """
    import numpy as np

    meta = json.loads(Path(f"{path}.json").read_text())
    n = meta["spans"]
    raw = Path(f"{path}.bin").read_bytes()
    name = np.frombuffer(raw, dtype=np.int32, count=n)
    parent = np.frombuffer(raw, dtype=np.int32, count=n, offset=4 * n)
    start = np.frombuffer(raw, dtype=np.float64, count=n, offset=8 * n)
    end = np.frombuffer(raw, dtype=np.float64, count=n, offset=16 * n)
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    nested = np.zeros(n, dtype=bool)
    ancestor = parent.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            break
        nested[live] |= name[ancestor[live]] == name[live]
        ancestor[live] = parent[ancestor[live]]

    out = {}
    for i, span in enumerate(meta["names"]):
        mine = name == i
        out[f"{span}.calls"] = int(mine.sum())
        out[f"{span}.s"] = float(dur[mine & ~nested].sum())
        out[f"{span}.self_s"] = float(self_time[mine].sum())
    for key in COUNTER_NAMES:
        out[key] = int(meta["counters"].get(key, 0))
    out["trace.spans"] = n
    return out
