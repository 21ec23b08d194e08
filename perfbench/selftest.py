#!/usr/bin/env python3
"""Self-test of the perfbench output checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs each workload's command once at seed 6, checks that its genuine
outputs pass, then damages a copy of them in four ways and checks that each
damaged copy fails at least one op:

  1. results.csv with a violation above 0 on an AIPO row;
  2. results.csv with a row missing;
  3. a truncated mechanism JSON;
  4. lower_bound.json with a bound above the EM baseline's loss.

Exits 0 when the genuine outputs pass and every damaged copy is caught.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
import time
from pathlib import Path

import checks
import run

SEED = 6


def _rewrite_results(path: Path, edit):
    rows = list(csv.reader(io.StringIO(path.read_text())))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(edit(rows))
    path.write_text(buf.getvalue())


def aipo_violation(out: Path):
    def edit(rows):
        col = rows[0].index("violation_ratio")
        first = next(r for r in rows[1:] if r[0] == "AIPO")
        first[col] = "0.5"
        return rows

    _rewrite_results(out / "results.csv", edit)


def missing_row(out: Path):
    _rewrite_results(out / "results.csv", lambda rows: rows[:5] + rows[6:])


def truncated_mechanism(out: Path):
    path = next(out.glob("mechanism_eps*.json"))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def bound_above_em(out: Path):
    path = out / "lower_bound.json"
    report = json.loads(path.read_text())
    # Every expected loss here is below the largest task distance, far below 10.
    report["values"] = {k: 10.0 for k in report["values"]}
    path.write_text(json.dumps(report))


TAMPERS = (
    ("compare-desk", aipo_violation),
    ("compare-desk", missing_row),
    ("synth-8x8", truncated_mechanism),
    ("lb-8x8", bound_above_em),
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    try:
        genuine = {}
        for name, workload in run.WORKLOADS.items():
            config = run.INPUTS / workload.config
            inv = run.invoke("run", workload.cli_args(config), work, name, SEED,
                             time.monotonic() + run.COMMAND_LIMIT_S)
            cfg = checks.load_config(config)
            eps = workload.eps or tuple(float(e) for e in cfg["privacy"]["eps"])
            genuine[name] = (inv.out_dir, workload, cfg, eps)
            outcome = workload.check(inv.out_dir, cfg, eps, SEED) if inv.code == 0 else None
            passed = outcome is not None and not outcome.failed
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} genuine {name} outputs pass"
                  + ("" if passed else f": {outcome.failed if outcome else inv.code}"))
        for name, tamper in TAMPERS:
            out_dir, workload, cfg, eps = genuine[name]
            copy = work / f"{name}.{tamper.__name__}"
            shutil.copytree(out_dir, copy)
            tamper(copy)
            outcome = workload.check(copy, cfg, eps, SEED)
            caught = bool(outcome.failed)
            ok &= caught
            print(f"{'PASS' if caught else 'FAIL'} {tamper.__name__} on {name} is caught"
                  + (f": {next(iter(outcome.failed.values()))}" if caught else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
