#!/usr/bin/env python3
"""Benchmark of the anchorpriv command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--instance-seed 6]

Each workload is one real CLI command on a frozen config from
``perfbench/inputs``. ``--seed N`` makes the run's input: the config with its
domain shifted by an offset drawn from N. The command gets
``--seed INSTANCE_SEED`` (default 6), so every run solves the same instance
up to that translation. Instance seeds change the LP iteration counts by up
to a quarter, which the few commands of one run can not average out; a shift
changes none of them.

The benchmark is a closed loop with one client: it runs the command in a
fresh process, waits for it to exit and starts the next one, for about S
seconds. Every process runs with ``--threads 1`` and BLAS threads pinned to
1. Before the loop it starts the command a few times in set-up probe mode,
which exits as soon as the instance is built.

After the loop, outside the timed region, it checks every command's outputs
(checks.py) and compares their SHA-256 digests: a command whose outputs
differ from the first command's counts all of its ops as failed.

With ``--trace 0`` it reports the end-to-end metrics: medians of the
commands' wall time, set-up time and peak resident memory, and the
workload's AIPO loss and lower bound. With ``--trace 1`` it alternates
traced and untraced commands and reports the per-layer metrics of the
traced ones (tracer.py) and the tracing overhead. The last line of standard
output is one JSON object; the full record of the run, with the sample
counts and the machine it ran on, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import yaml

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
STATE = ROOT / ".perfbench"

# Set-up probes per run, after one discarded warm-up probe.
SETUP_PROBES = 2
# No command may outlive this, so the whole run ends within 180 s.
COMMAND_LIMIT_S = 170.0
# Largest domain shift per axis, in domain units.
MAX_SHIFT = 5.0

CHILD_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    VECLIB_MAXIMUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
    ANCHORPRIV_THREADS="1",
)
CHILD_ENV.pop("PYTHONPATH", None)


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    eps: tuple | None  # None: the config's budgets
    check: Callable[..., checks.Outcome]
    reference: str | None = None  # untimed command whose output the check uses

    def cli_args(self, config: Path, command=None) -> list:
        args = [command or self.command, "--config", str(config)]
        if self.eps:
            args += ["--eps", ",".join(checks.eps_key(e) for e in self.eps)]
        return args


WORKLOADS = {
    # compare on the desk config: 9 methods x 8 budgets, 128 tiny LPs; most
    # time goes to per-point evaluation in Python (audit, loss, distances).
    "compare-desk": Workload("compare", "desk.yaml", None, checks.check_compare),
    # 24 anchor LPs of 1,296 vars and ~4.7k rows, no evaluation: the solver
    # and the sweep's re-solve show here, evaluation changes must not.
    "synth-8x8": Workload("synthesize", "grid8.yaml", (0.4, 1.2), checks.check_synth,
                          reference="lower-bound"),
    # one all-pairs cell LP of 1,024 vars and ~64.6k dense rows: the
    # opposite LP shape to synth-8x8, and the bound's memory peak.
    "lb-8x8": Workload("lower-bound", "grid8.yaml", (0.8,), checks.check_lower_bound,
                       reference="synthesize"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "aipo_loss": "loss", "lower_bound": "loss"}


@dataclass
class Invocation:
    name: str
    mode: str
    out_dir: Path
    code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    spans: Path | None = None


def invoke(mode: str, args: list, run_dir: Path, name: str, seed: int,
           deadline: float) -> Invocation:
    """Run one command through launch.py and wait for it to exit."""
    inv_dir = run_dir / name
    inv_dir.mkdir(parents=True)
    marks = inv_dir / "marks.json"
    out_dir = inv_dir / "out"
    argv = [sys.executable, str(HERE / "launch.py"), mode, str(marks), *args,
            "--seed", str(seed), "--threads", "1", "--out-dir", str(out_dir)]
    with open(inv_dir / "stdout.txt", "wb") as out, open(inv_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the command before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = None
    if code == 0 and marks.exists():
        mark = json.loads(marks.read_text()).get("setup_end")
        setup = None if mark is None else mark - start
    spans = marks.with_suffix(".spans") if mode == "trace" else None
    return Invocation(name, mode, out_dir, code, wall, setup, usage.ru_maxrss / 1024.0, spans)


def shifted_config(workload: Workload, seed: int, run_dir: Path) -> tuple[Path, list]:
    """Write the workload's config with its domain shifted by an offset drawn from ``seed``."""
    cfg = checks.load_config(INPUTS / workload.config)
    rng = random.Random(seed)
    dom = cfg["domain"]
    offset = [round(rng.uniform(-MAX_SHIFT, MAX_SHIFT), 3) for _ in dom["lower"]]
    dom["lower"] = [float(v) + o for v, o in zip(dom["lower"], offset)]
    dom["upper"] = [float(v) + o for v, o in zip(dom["upper"], offset)]
    path = run_dir / "input.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path, offset


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def median(values):
    return statistics.median(values) if values else None


def measure(workload: Workload, config: Path, instance_seed: int, seconds: float,
            trace: bool, run_dir: Path):
    """The timed region: set-up probes, then the command in a closed loop."""
    started = time.monotonic()
    deadline, limit = started + seconds, started + COMMAND_LIMIT_S
    args = workload.cli_args(config)

    def start(mode, name):
        return invoke(mode, args, run_dir, name, instance_seed, limit)

    start("setup", "warmup")
    probes = [] if trace else [start("setup", f"probe{i}") for i in range(SETUP_PROBES)]
    # Start another command while at least half of its expected wall time
    # fits before the deadline, so that a run overshoots by at most that half.
    timed = []
    modes = ("trace", "run") if trace else ("run",)
    while True:
        timed.append(start(modes[len(timed) % len(modes)], f"cmd{len(timed)}"))
        expected = median([inv.wall_s for inv in timed])
        if len(timed) >= len(modes) and time.monotonic() + expected / 2 > deadline:
            break
    measured_s = time.monotonic() - started
    reference = None
    if workload.reference:
        reference = invoke("run", workload.cli_args(config, workload.reference), run_dir,
                           "reference", instance_seed, limit)
    return probes, timed, reference, measured_s


def check_commands(workload: Workload, config: Path, timed: list, reference,
                   instance_seed: int):
    """Check every command's outputs; returns (attempted, failed, quality, records)."""
    cfg = checks.load_config(config)
    eps_list = workload.eps or tuple(float(e) for e in cfg["privacy"]["eps"])
    ref_dir = reference.out_dir if reference and reference.code == 0 else None
    attempted = failed = 0
    first_digest = None
    quality, records = {}, []
    for inv in timed:
        outcome = workload.check(inv.out_dir, cfg, eps_list, instance_seed, ref_dir)
        digest = checks.digest(inv.out_dir) if inv.code == 0 else None
        first_digest = first_digest or digest
        if inv.code != 0:
            reasons = {"all": f"exit code {inv.code}"}
        elif digest != first_digest:
            reasons = {"all": "outputs differ from the first command's"}
        else:
            reasons = {str(k): v for k, v in outcome.failed.items()}
            for key, value in outcome.quality.items():
                quality.setdefault(key, value)
        attempted += len(outcome.ops)
        failed += len(outcome.ops) if "all" in reasons else len(reasons)
        records.append({"name": inv.name, "mode": inv.mode, "code": inv.code,
                        "wall_s": inv.wall_s, "setup_s": inv.setup_s,
                        "peak_rss_mb": inv.peak_rss_mb, "sha256": digest,
                        "failed": reasons})
    return attempted, failed, quality, records


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics: counts of the first traced command, times as medians."""
    summaries = [tracer.summarize(inv.spans) for inv in traced]
    first = summaries[0]
    metrics, unstable = {}, []
    for key, value in first.items():
        if key.endswith((".s", ".self_s")):
            metrics[key] = (median([s[key] for s in summaries]), "s")
        else:
            metrics[key] = (value, "count")
            if any(s[key] != value for s in summaries):
                unstable.append(key)
    builds = first["apo.build_approx_apo.calls"]
    metrics["budget.useful_solve_ratio"] = (
        first["budget.candidates"] / builds if builds else 0.0, "ratio")
    output_bytes = sum(p.stat().st_size for p in traced[0].out_dir.rglob("*") if p.is_file())
    metrics["cli.output_bytes"] = (output_bytes, "B")
    traced_wall = median([inv.wall_s for inv in traced])
    untraced_wall = median([inv.wall_s for inv in untraced])
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return metrics, unstable


def run(workload_name: str, seed: int, instance_seed: int, seconds: float,
        trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    tag = f"{workload_name}.seed{seed}.trace{int(trace)}"
    run_dir = STATE / "work" / f"{tag}.{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        config, offset = shifted_config(workload, seed, run_dir)
        probes, timed, reference, measured_s = measure(
            workload, config, instance_seed, seconds, trace, run_dir)

        # Everything below is outside the timed region.
        sys.path.insert(0, str(SRC))
        import anchorpriv

        if not Path(anchorpriv.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"perfbench: anchorpriv imported from {anchorpriv.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        attempted, failed, quality, records = check_commands(
            workload, config, timed, reference, instance_seed)
        untraced = [inv for inv in timed if inv.mode == "run" and inv.code == 0]
        traced = [inv for inv in timed if inv.mode == "trace" and inv.code == 0]
        layer = per_layer(traced, untraced) if traced and untraced else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setups = [inv.setup_s for inv in probes + untraced if inv.setup_s is not None]
    record = {
        "workload": workload_name, "seed": seed, "instance_seed": instance_seed,
        "domain_offset": offset, "seconds": seconds, "trace": trace,
        "measured_s": measured_s, "machine": machine(),
        "setup_probes": [inv.setup_s for inv in probes],
        "commands": records,
        "reference": None if reference is None else {
            "code": reference.code, "wall_s": reference.wall_s},
        "attempted": attempted, "failed": failed, "quality": quality,
    }

    metrics = {}
    if trace:
        if layer:
            values, record["unstable_counts"] = layer
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        values = {
            "wall_s": median([inv.wall_s for inv in untraced]),
            "setup_s": median(setups),
            "peak_rss_mb": median([inv.peak_rss_mb for inv in untraced]),
            "aipo_loss": quality.get("aipo_loss"),
            "lower_bound": quality.get("lower_bound"),
        }
        if None not in values.values():
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["samples"] = {"wall_s": len(untraced), "setup_s": len(setups),
                             "peak_rss_mb": len(untraced)}
    record["metrics"] = metrics
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if not metrics:
        print(f"perfbench: {tag}: a metric could not be measured, as a command or the "
              f"reference failed; see {record_path}", file=sys.stderr)
        return 1
    for cmd in records:
        if cmd["failed"]:
            print(f"perfbench: {cmd['name']} failed ops: {cmd['failed']}", file=sys.stderr)
    print(f"{tag}: {len(untraced)} untraced and {len(traced)} traced commands and "
          f"{len(setups)} set-ups in {measured_s:.1f} s; {failed}/{attempted} ops failed; "
          f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=6,
                        help="seed of the domain shift that makes the run's input")
    parser.add_argument("--instance-seed", type=int, default=6,
                        help="instance seed passed to the command (default 6)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the running command is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "anchorpriv" / "cli.py").is_file():
        print(f"perfbench: no anchorpriv sources at {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.instance_seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
