"""Output checks of the perfbench workloads.

Each check reads one command's output directory and returns the ops that
failed, with a reason, and the workload's quality figures. The checks test
invariants, not stored digits: faster evaluation may change trailing digits
and a tighter lower bound may raise the bound many times over, and both
must still pass.

An op is one (method, eps) row of ``compare``, one mechanism of
``synthesize`` or one bound of ``lower-bound``. The 8x8 workloads also take
the output of an untimed reference command (``lower-bound`` for synth-8x8,
``synthesize`` for lb-8x8), so that each workload reports both the AIPO loss
and the lower bound and checks one against the other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

# Methods that meet the target budget at every pair of points: the audit
# must find no violation and their loss can not fall below the bound.
GUARANTEED = ("AIPO", "AIPO-E", "EM", "RMP-EM")
# Slack for comparing two losses computed along different code paths.
LOSS_TOL = 1e-9
# Slack for matching a budget split written with 17 significant digits.
SPLIT_TOL = 1e-12


@dataclass
class Outcome:
    """Failed ops of one output directory, keyed by op, and its quality figures."""

    ops: list
    failed: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def fail(self, op, reason: str):
        self.failed.setdefault(op, reason)


def digest(out_dir: Path) -> str:
    """SHA-256 over every file below ``out_dir``, with its relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def load_config(path: Path) -> dict:
    return yaml.safe_load(Path(path).read_text())


def eps_key(eps: float) -> str:
    """Budget as the command line prints it in file names and keys."""
    return format(float(eps), "g")


def instance_spec(cfg: dict):
    """InstanceSpec from a frozen config, which states every field it uses."""
    from anchorpriv.evaluation import InstanceSpec

    dom, inst = cfg["domain"], cfg["instance"]
    return InstanceSpec(
        lower=tuple(float(v) for v in dom["lower"]),
        upper=tuple(float(v) for v in dom["upper"]),
        grid=tuple(int(v) for v in dom["grid"]),
        outputs=tuple(int(v) for v in inst["outputs"]),
        graph_size=int(inst["graph_size"]),
        samples_per_cell=int(inst["samples_per_cell"]),
        n_tasks=int(inst["n_tasks"]),
        n_hotspots=int(inst["n_hotspots"]),
        weight_jitter=float(inst["weight_jitter"]),
        prior_on_anchors=bool(inst["prior_on_anchors"]),
    )


def _store_mean(out: Outcome, name: str, values: dict, ops):
    """Store the mean of ``values`` over ``ops`` as quality ``name``, unless one is missing."""
    if all(values.get(op) is not None for op in ops):
        out.quality[name] = sum(values[op] for op in ops) / len(ops)


def _finite(text) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def check_compare(out_dir: Path, cfg: dict, eps_list, seed: int, ref_dir=None) -> Outcome:
    """One op per (method, eps) row of results.csv."""
    methods = list(cfg["compare"]["methods"])
    out = Outcome(ops=[(m, eps_key(e)) for m in methods for e in eps_list])
    rows = {}
    try:
        with open(Path(out_dir) / "results.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row.get("method"), eps_key(_finite(row.get("eps")) or -1))
                if key in rows:
                    out.fail(key, "duplicate row")
                rows[key] = row
    except OSError as exc:
        for op in out.ops:
            out.fail(op, f"results.csv unreadable: {exc}")
        return out

    losses = {}
    for op in out.ops:
        method, _ = op
        row = rows.get(op)
        if row is None:
            out.fail(op, "row missing")
            continue
        loss = _finite(row.get("utility_loss"))
        if loss is None or loss < 0:
            out.fail(op, f"utility_loss {row.get('utility_loss')!r} not a finite value >= 0")
            continue
        viol_text = row.get("violation_ratio") or ""
        if method == "LB":
            if viol_text:
                out.fail(op, "LB row carries a violation ratio")
        else:
            viol = _finite(viol_text)
            if viol is None or not 0 <= viol <= 100:
                out.fail(op, f"violation_ratio {viol_text!r} not in [0, 100]")
                continue
            if method in GUARANTEED and viol != 0:
                out.fail(op, f"{method} violates its budget on {viol}% of pairs")
        losses[op] = loss

    for method, eps in out.ops:
        bound = losses.get(("LB", eps))
        loss = losses.get((method, eps))
        if method in GUARANTEED and bound is not None and loss is not None \
                and loss < bound - LOSS_TOL:
            out.fail((method, eps), f"loss {loss} below the lower bound {bound}")

    for name, method in (("aipo_loss", "AIPO"), ("lower_bound", "LB")):
        _store_mean(out, name, losses, [(method, eps_key(e)) for e in eps_list])
    return out


def _check_sweep(path: Path, eps: float, cfg: dict, chosen) -> str | None:
    """Reason the sweep CSV is wrong, or None."""
    from anchorpriv.budget import equal_split

    try:
        with open(path, newline="") as fh:
            rows = [[_finite(v) for v in (r["eps1"], r["eps2"], r["loss"])]
                    for r in csv.DictReader(fh)]
    except (OSError, KeyError) as exc:
        return f"sweep CSV unreadable: {exc}"
    if not rows or any(None in r for r in rows):
        return "sweep CSV empty or not finite"
    priv = cfg["privacy"]
    equal = equal_split(eps, float(cfg["metric"]["p"]), 2,
                        convention=priv["budget_convention"]).eps
    if not any(abs(r[0] - equal[0]) <= SPLIT_TOL and abs(r[1] - equal[-1]) <= SPLIT_TOL
               for r in rows):
        return f"sweep lacks the equal split {list(equal)}"
    best = min(rows, key=lambda r: (r[2], r[0]))
    if chosen is None or abs(best[0] - chosen[0]) > SPLIT_TOL \
            or abs(best[1] - chosen[-1]) > SPLIT_TOL:
        return f"stored budget {chosen} is not the sweep minimum {best[:2]}"
    return None


def check_synth(out_dir: Path, cfg: dict, eps_list, seed: int, ref_dir=None) -> Outcome:
    """One op per mechanism; ``ref_dir`` holds ``lower-bound`` at the same budgets."""
    from anchorpriv import Mechanism
    from anchorpriv.evaluation import expected_loss, load_instance

    out_dir = Path(out_dir)
    out = Outcome(ops=[eps_key(e) for e in eps_list])
    bounds = (_read_json(Path(ref_dir) / "lower_bound.json") or {}).get("values", {}) \
        if ref_dir else {}
    try:
        instance = load_instance(out_dir / "instance")
    except Exception as exc:  # any malformed instance fails every op
        instance = None
        for op in out.ops:
            out.fail(op, f"instance unreadable: {exc!r}")

    n_out = math.prod(int(v) for v in cfg["instance"]["outputs"])
    losses = {}
    for eps in eps_list:
        op = eps_key(eps)
        try:
            mech = Mechanism.load(out_dir / f"mechanism_eps{op}.json")
        except Exception as exc:  # the file must load; how it fails is the report
            out.fail(op, f"Mechanism.load failed: {exc!r}")
            continue
        probs = mech.table.probs
        if mech.total_eps != eps or mech.n_outputs != n_out or mech.budget is None:
            out.fail(op, "mechanism budget or outputs differ from the request")
            continue
        if probs.shape[0] != mech.partition.n_anchors or not (probs > 0).all() \
                or abs(probs.sum(axis=1) - 1).max() > 1e-9:
            out.fail(op, "anchor table is not a positive row-stochastic table")
            continue
        reason = _check_sweep(out_dir / f"sweep_eps{op}.csv", eps, cfg, mech.budget.eps)
        if reason:
            out.fail(op, reason)
            continue
        if instance is None:
            continue
        loss = expected_loss(mech, instance.prior, instance.loss)
        bound = _finite(bounds.get(op))
        if not math.isfinite(loss) or (bound is not None and loss < bound - LOSS_TOL):
            out.fail(op, f"expected loss {loss} not finite or below the bound {bound}")
            continue
        losses[op] = loss

    _store_mean(out, "aipo_loss", losses, out.ops)
    _store_mean(out, "lower_bound", {op: _finite(bounds.get(op)) for op in out.ops}, out.ops)
    return out


def check_lower_bound(out_dir: Path, cfg: dict, eps_list, seed: int, ref_dir=None) -> Outcome:
    """One op per bound; ``ref_dir`` holds ``synthesize`` at the same budgets.

    Each bound must be finite, at least 0 and at most the expected loss of
    the EM baseline, which this check computes itself, and of the AIPO
    mechanism from the reference run.
    """
    from anchorpriv import Mechanism
    from anchorpriv.evaluation import expected_loss, synth_instance
    from anchorpriv.mechanisms import ExponentialMechanism

    out = Outcome(ops=[eps_key(e) for e in eps_list])
    report = _read_json(Path(out_dir) / "lower_bound.json")
    if not isinstance(report, dict) or not isinstance(report.get("values"), dict) \
            or report.get("seed") != seed:
        for op in out.ops:
            out.fail(op, "lower_bound.json unreadable or for another seed")
        return out

    p = float(cfg["metric"]["p"])
    instance = synth_instance(instance_spec(cfg), seed=seed)
    bounds, aipo = {}, {}
    for eps in eps_list:
        op = eps_key(eps)
        bound = _finite(report["values"].get(op))
        if bound is None or bound < 0:
            out.fail(op, f"bound {report['values'].get(op)!r} not a finite value >= 0")
            continue
        em = ExponentialMechanism(instance.outputs, instance.partition.bounds, eps, p)
        em_loss = expected_loss(em, instance.prior, instance.loss)
        if bound > em_loss + LOSS_TOL:
            out.fail(op, f"bound {bound} above the EM loss {em_loss}")
            continue
        bounds[op] = bound
        if ref_dir is None:
            continue
        try:
            mech = Mechanism.load(Path(ref_dir) / f"mechanism_eps{op}.json")
        except Exception as exc:  # the reference run is the program too
            out.fail(op, f"reference mechanism failed to load: {exc!r}")
            continue
        aipo[op] = expected_loss(mech, instance.prior, instance.loss)
        if bound > aipo[op] + LOSS_TOL:
            out.fail(op, f"bound {bound} above the AIPO loss {aipo[op]}")

    _store_mean(out, "aipo_loss", aipo, out.ops)
    _store_mean(out, "lower_bound", bounds, out.ops)
    return out
