#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

Usage (from the root of a checkout):

    python3 tools/paired_bench.py --base COMMIT --workload compare-desk --pairs 10

``--base`` is the commit the change is measured against, usually the
parent of the change (``HEAD`` while the change is uncommitted, ``HEAD~1``
once it is the last commit). The tool exports it with ``git archive``
into a temporary directory, copies the working tree's files there too
(tracked and untracked, less what .gitignore lists), and runs
``perfbench/run.py --trace 0`` for the workload in each copy in turn,
``--pairs`` times, each run BENCHMARK.json's ``run_seconds`` long at the
benchmark's default seed. Pair i runs the base first when i is even and
the working tree first when it is odd, so that neither side always runs
second. Both sides run from fresh copies on one file system, edits made
to the checkout meanwhile do not reach them, and nothing is written into
the checkout; the copies are removed at the end.

It prints every pair's ``wall_s``, each side's median and quartiles, and
the change's wins: the pairs in which the working tree's ``wall_s`` is
lower than the base's, ties counting for neither. A gain holds when the
change wins at least nine tenths of the pairs and the medians differ by
more than the distance between the base's quartiles. Last come both
sides' medians of the other end-to-end metrics; a metric whose change
median is worse than the base median by more than its ``bound`` in
BENCHMARK.json's ``end_to_end`` (a fraction of the base median, worse
as its ``better`` says) is marked WORSE.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRIC = "wall_s"


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout


def export(rev: str, dest: Path) -> Path:
    """Write the files of commit ``rev`` into ``dest/base`` with ``git archive``."""
    tar = dest / "base.tar"
    git("archive", "--output", str(tar), rev)
    tree = dest / "base"
    tree.mkdir()
    subprocess.run(["tar", "-x", "-f", str(tar), "-C", str(tree)], check=True)
    tar.unlink()
    return tree


def copy_working_tree(dest: Path) -> Path:
    """Copy the working tree's files, less those .gitignore lists, into ``dest/change``."""
    tree = dest / "change"
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a deleted tracked file is still listed
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """End-to-end metrics of one untraced perfbench run in checkout ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or not result["correct"] or not result["metrics"]:
        raise RuntimeError(f"perfbench run in {tree} failed (exit {proc.returncode}):\n"
                           f"{proc.stdout}{proc.stderr}")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base, change) -> dict:
    """Each side's quartiles, the change's wins and whether a gain holds.

    Lower values are better.
    """
    wins = sum(c < b for b, c in zip(base, change, strict=True))
    base_q, change_q = quartiles(base), quartiles(change)
    spread = base_q[2] - base_q[0]
    gain = wins >= 0.9 * len(base) and base_q[1] - change_q[1] > spread
    return {"base": base_q, "change": change_q, "wins": wins, "pairs": len(base),
            "gain": gain}


def worse_beyond_bound(base, change, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the base's by more than ``bound`` of it.

    ``better`` is "lower" or "higher", as BENCHMARK.json's ``end_to_end``
    gives it.
    """
    b, c = statistics.median(base), statistics.median(change)
    worse = {"lower": c - b, "higher": b - c}[better]
    return worse > bound * abs(b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="commit to compare the working tree with, usually its parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    specs = {m["name"]: m for m in benchmark["end_to_end"]}

    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="paired_bench.") as tmp:
        trees = {"base": export(args.base, Path(tmp)), "change": copy_working_tree(Path(tmp))}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in order:
                runs[name].append(run_once(trees[name], args.workload, seconds))
            print(f"pair {i + 1}: base {runs['base'][-1][METRIC]:.6g}, "
                  f"change {runs['change'][-1][METRIC]:.6g} ({order[0]} first)", flush=True)

    base, change = ([run[METRIC] for run in runs[name]] for name in ("base", "change"))
    s = summarize(base, change)
    for name in ("base", "change"):
        q1, q2, q3 = s[name]
        print(f"{name}: median {q2:.6g}, quartiles {q1:.6g} to {q3:.6g}")
    for metric in runs["base"][0]:
        if metric != METRIC:
            values = [[run[metric] for run in runs[name]] for name in ("base", "change")]
            mark = ""
            if metric in specs and worse_beyond_bound(*values, specs[metric]["better"],
                                                      specs[metric]["bound"]):
                mark = f"; WORSE by more than its bound {specs[metric]['bound']:g}"
            print(f"{metric}: median "
                  f"{' -> '.join(f'{statistics.median(v):.6g}' for v in values)}{mark}")
    change_pct = 100.0 * (s["change"][1] / s["base"][1] - 1.0)
    print(f"{args.workload} {METRIC}: change {change_pct:+.1f}% in the median, "
          f"better in {s['wins']} of {s['pairs']} pairs; "
          f"gain {'holds' if s['gain'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
