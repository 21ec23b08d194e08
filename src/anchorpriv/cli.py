"""Command-line front end for reproducible experiments.

Four subcommands tie the library together: ``synthesize`` builds anchor
mechanisms from a config, ``audit`` checks a stored mechanism's empirical
ratio compliance, ``compare`` tabulates utility loss and violation ratios
across methods, and ``lower-bound`` evaluates the universal loss bound.

Every command is deterministic given (config, seed): outputs are plain
CSV/JSON, floats are written in round-trip precision, and each run drops
a manifest stamped with the config hash. Wall-clock timings are only
recorded when ``--timing`` is passed, because measured times are the one
quantity that cannot be reproduced byte for byte.

Exit codes: 0 success, 2 config error, 3 infeasible/solver error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__, apo, audit, budget, evaluation, mechanisms
from .errors import ConfigError, SolverError
from .geometry import Partition, locate_cells
from .interpolation import Mechanism

THREADS_ENV = "ANCHORPRIV_THREADS"

DEFAULT_EPS = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
DEFAULT_METHODS = ["AIPO", "AIPO-E", "EM", "Laplace", "RMP-EM", "CoarseLP", "LB"]

KNOWN_METHODS = (
    "AIPO", "AIPO-E", "AIPO-R", "EM", "Laplace", "TEM",
    "RMP-EM", "RMP-Laplace", "RMP-TEM", "CoarseLP", "LB",
)


# ---------------------------------------------------------------------------
# Config handling


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def load_config(path) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = yaml.safe_load(raw) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    cfg["_sha256"] = hashlib.sha256(raw).hexdigest()
    return cfg


def instance_spec_from_config(cfg: dict) -> evaluation.InstanceSpec:
    dom = _section(cfg, "domain")
    inst = _section(cfg, "instance")
    try:
        return evaluation.InstanceSpec(
            lower=tuple(float(v) for v in dom.get("lower", (0.0, 0.0))),
            upper=tuple(float(v) for v in dom.get("upper", (1.0, 1.0))),
            grid=tuple(int(v) for v in dom.get("grid", (4, 4))),
            outputs=tuple(int(v) for v in inst.get("outputs", (3, 3))),
            graph_size=int(inst.get("graph_size", 5)),
            samples_per_cell=int(inst.get("samples_per_cell", 3)),
            n_tasks=int(inst.get("n_tasks", 6)),
            n_hotspots=int(inst.get("n_hotspots", 2)),
            weight_jitter=float(inst.get("weight_jitter", 0.5)),
            prior_on_anchors=bool(inst.get("prior_on_anchors", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid domain/instance settings: {exc}") from exc


def privacy_from_config(cfg: dict, eps_override=None):
    met = _section(cfg, "metric")
    priv = _section(cfg, "privacy")
    p = float(met.get("p", 2.0))
    if str(met.get("p")) in ("inf", "Infinity"):
        p = float("inf")
    if not p >= 1:
        raise ConfigError(f"metric.p must be >= 1, got {p}")
    eps_list = eps_override or priv.get("eps", DEFAULT_EPS)
    try:
        eps_list = [float(e) for e in eps_list]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"privacy.eps must be a list of numbers: {exc}") from exc
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ConfigError("privacy.eps must contain positive values")
    mode = priv.get("budget_mode", "sweep")
    if mode not in ("sweep", "equal", "explicit"):
        raise ConfigError(f"privacy.budget_mode must be sweep|equal|explicit, got {mode!r}")
    convention = priv.get("budget_convention", "half-dual")
    if convention not in budget.CONVENTIONS:
        raise ConfigError(f"privacy.budget_convention must be one of {budget.CONVENTIONS}")
    resolution = int(priv.get("sweep_resolution", 5))
    explicit = priv.get("explicit_budget")
    if mode == "explicit" and explicit is None:
        raise ConfigError("privacy.explicit_budget required when budget_mode=explicit")
    return {
        "p": p,
        "eps_list": eps_list,
        "mode": mode,
        "convention": convention,
        "resolution": resolution,
        "explicit": explicit,
    }


# ---------------------------------------------------------------------------
# Pipeline assembly (shared by synthesize/compare and the test suite)


def make_aipo_mechanism(instance, eps: float, p: float, mode: str = "sweep",
                        resolution: int = 5, convention: str = "half-dual",
                        explicit=None):
    """Solve the anchor pipeline at one total budget.

    Returns (mechanism, best budget vector, sweep curve or None). The
    sweep evaluator is the optimal value of each candidate's program, i.e.
    the surrogate expected loss of its solved table.
    """
    part, outputs = instance.partition, instance.outputs
    coeffs = apo.surrogate_coefficients(part, instance.prior, instance.loss, outputs)
    validate = convention == "half-dual"
    n = part.n_dims

    tables = {}  # solved table per budget vector; no vector is solved twice

    def surrogate_loss(bv):
        lp = apo.build_approx_apo(part, outputs, bv, coeffs, validate_budget=validate)
        tables[tuple(bv.eps)] = table = apo.solve_approx_apo(lp)
        return float(np.sum(coeffs.matrix * table.probs))

    curve = None
    if mode == "equal":
        best = budget.equal_split(eps, p, n, convention=convention)
    elif mode == "explicit":
        best = apo.BudgetVector(eps=np.asarray(explicit, dtype=float), total_eps=eps, p=p)
    else:
        candidates = budget.feasible_allocations(
            eps, p, n_dims=n, resolution=resolution, convention=convention
        )
        best, curve = budget.optimize_allocation(candidates, surrogate_loss)
    if tuple(best.eps) not in tables:
        surrogate_loss(best)
    mech = Mechanism(part, tables[tuple(best.eps)], outputs, budget=best,
                     total_eps=eps, metric_p=p)
    return mech, best, curve


def make_method(tag: str, instance, eps: float, p: float, *,
                mode: str = "sweep", resolution: int = 5,
                convention: str = "half-dual", explicit=None,
                coarse_grid=None, tem_radius=None):
    """Build one comparison method; returns a mechanism with log_probs.

    "LB" is special-cased by the caller since it yields a scalar bound
    rather than a mechanism.
    """
    part, outputs = instance.partition, instance.outputs
    bounds = part.bounds
    if tag == "AIPO":
        return make_aipo_mechanism(
            instance, eps, p, mode=mode, resolution=resolution,
            convention=convention, explicit=explicit,
        )[0]
    if tag == "AIPO-E":
        return make_aipo_mechanism(
            instance, eps, p, mode="equal", convention=convention
        )[0]
    if tag == "AIPO-R":
        coeffs = apo.surrogate_coefficients(part, instance.prior, instance.loss, outputs)
        lp = apo.build_aipo_relaxed(part, outputs, eps, p, coeffs)
        table = apo.solve_approx_apo(lp)
        return Mechanism(part, table, outputs, total_eps=eps, metric_p=p)
    if tag == "EM":
        return mechanisms.ExponentialMechanism(outputs, bounds, eps, p)
    if tag == "Laplace":
        return mechanisms.PlanarLaplaceMechanism(outputs, bounds, eps)
    if tag == "TEM":
        return mechanisms.TruncatedExponentialMechanism(outputs, bounds, eps, p, tem_radius)
    if tag.startswith("RMP-"):
        base = make_method(tag[4:], instance, eps, p, coarse_grid=coarse_grid,
                           tem_radius=tem_radius)
        return mechanisms.bayesian_remap(base, instance.prior, instance.loss)
    if tag == "CoarseLP":
        grid = coarse_grid or instance.partition.counts
        coarse_part = Partition(*bounds, grid)
        reps = np.stack([
            coarse_part.cell(m).base_corner + 0.5 * coarse_part.cell(m).side_lengths
            for m in range(coarse_part.n_cells)
        ])
        # Each representative carries the prior mass of its cell.
        masses = np.bincount(
            locate_cells(coarse_part, instance.prior.points),
            weights=instance.prior.masses, minlength=coarse_part.n_cells,
        )
        lp = apo.build_coarse_lp(reps, masses, outputs, eps, p, instance.loss)
        table = apo.solve_approx_apo(lp)
        return mechanisms.CoarseLpMechanism(reps, table, outputs, bounds)
    raise ConfigError(f"unknown method tag {tag!r}")


# ---------------------------------------------------------------------------
# Output helpers


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _manifest(command: str, cfg_hash: str, seed: int, extra=None) -> dict:
    payload = {
        "command": command,
        "config_sha256": cfg_hash,
        "seed": seed,
        "package_version": __version__,
    }
    if extra:
        payload.update(extra)
    return payload


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# Commands


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    spec = instance_spec_from_config(cfg)
    priv = privacy_from_config(cfg, args.eps)
    seed = args.seed if args.seed is not None else int(_section(cfg, "instance").get("seed", 0))
    out_dir = Path(args.out_dir)
    instance = evaluation.synth_instance(spec, seed=seed)
    evaluation.save_instance(instance, out_dir / "instance")
    written = []
    for eps in priv["eps_list"]:
        mech, best, curve = make_aipo_mechanism(
            instance, eps, priv["p"], mode=priv["mode"],
            resolution=priv["resolution"], convention=priv["convention"],
            explicit=priv["explicit"],
        )
        name = f"mechanism_eps{eps:g}.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        mech.save(out_dir / name)
        written.append(name)
        if curve is not None:
            _write_text(out_dir / f"sweep_eps{eps:g}.csv", budget.allocation_curve_csv(curve))
    _write_json(
        out_dir / "manifest_synthesize.json",
        _manifest("synthesize", cfg["_sha256"], seed, {
            "eps": priv["eps_list"],
            "budget_mode": priv["mode"],
            "budget_convention": priv["convention"],
            "mechanisms": written,
        }),
    )
    print(f"synthesized {len(written)} mechanism(s) -> {out_dir}")
    return 0


def cmd_audit(args) -> int:
    mech_bytes = Path(args.mechanism).read_bytes()
    mech = Mechanism.load(args.mechanism)
    out_dir = Path(args.out_dir)
    report = audit.violation_ratio(
        mech, args.eps, mech.metric_p, sample_count=args.samples,
        seed=args.seed, threads=args.threads,
    )
    edges, counts = audit.ppr_histogram(
        mech, args.eps, mech.metric_p, sample_count=min(args.samples, 300),
        bins=args.bins, seed=args.seed, threads=args.threads,
    )
    _write_json(out_dir / "audit_report.json", report.to_json_dict())
    _write_text(out_dir / "ppr_histogram.csv", audit.histogram_csv(edges, counts))
    _write_json(
        out_dir / "manifest_audit.json",
        _manifest("audit", hashlib.sha256(mech_bytes).hexdigest(), args.seed, {
            "eps": args.eps,
            "samples": args.samples,
        }),
    )
    print(
        f"violation_ratio={report.violation_ratio:.2f}% over {report.pair_count} pairs "
        f"(max_ppr={report.max_ppr:.4g}, eps={args.eps:g})"
    )
    return 0


def cmd_lower_bound(args) -> int:
    cfg = load_config(args.config)
    spec = instance_spec_from_config(cfg)
    priv = privacy_from_config(cfg, args.eps)
    seed = args.seed if args.seed is not None else int(_section(cfg, "instance").get("seed", 0))
    instance = evaluation.synth_instance(spec, seed=seed)
    values = {}
    for eps in priv["eps_list"]:
        values[f"{eps:g}"] = apo.lower_bound(
            instance.partition, instance.outputs, eps, priv["p"],
            instance.loss, instance.prior,
        )
    out_dir = Path(args.out_dir)
    _write_json(out_dir / "lower_bound.json", {
        "metric_p": priv["p"],
        "seed": seed,
        "values": values,
    })
    _write_json(
        out_dir / "manifest_lower_bound.json",
        _manifest("lower-bound", cfg["_sha256"], seed, {"eps": priv["eps_list"]}),
    )
    for k, v in values.items():
        print(f"eps={k}: lower_bound={v:.6g}")
    return 0


def _compare_cell(method, instance, eps, priv, comp, seed, threads, timing):
    """One (method, eps, replicate) evaluation -> (loss, violation%, ms)."""
    start = time.perf_counter()
    if method == "LB":
        loss_val = apo.lower_bound(
            instance.partition, instance.outputs, eps, priv["p"],
            instance.loss, instance.prior,
        )
        viol = None
    else:
        mech = make_method(
            method, instance, eps, priv["p"], mode=priv["mode"],
            resolution=priv["resolution"], convention=priv["convention"],
            explicit=priv["explicit"], coarse_grid=comp.get("coarse_grid"),
            tem_radius=comp.get("tem_radius"),
        )
        loss_val = evaluation.expected_loss(mech, instance.prior, instance.loss)
        report = audit.violation_ratio(
            mech, eps, priv["p"], sample_count=int(comp.get("audit_samples", 300)),
            seed=seed, threads=threads,
        )
        viol = report.violation_ratio
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return loss_val, viol, elapsed_ms if timing else None


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    spec = instance_spec_from_config(cfg)
    priv = privacy_from_config(cfg, args.eps)
    comp = _section(cfg, "compare")
    methods = args.method or comp.get("methods", DEFAULT_METHODS)
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ConfigError(f"unknown method tag {m!r}; known: {KNOWN_METHODS}")
    replicates = int(comp.get("replicates", 1))
    seed = args.seed if args.seed is not None else int(_section(cfg, "instance").get("seed", 0))
    out_dir = Path(args.out_dir)

    instances = [
        evaluation.synth_instance(spec, seed=seed + r) for r in range(replicates)
    ]
    header = ["method", "eps", "utility_loss", "violation_ratio", "wall_time_ms"]
    if replicates > 1:
        header = [
            "method", "eps", "utility_loss", "utility_loss_ci95",
            "violation_ratio", "violation_ratio_ci95", "wall_time_ms",
        ]
    lines = [",".join(header)]
    for method in methods:
        for eps in priv["eps_list"]:
            losses, viols, times = [], [], []
            for r, inst in enumerate(instances):
                loss_val, viol, ms = _compare_cell(
                    method, inst, eps, priv, comp, seed + r, args.threads, args.timing
                )
                losses.append(loss_val)
                if viol is not None:
                    viols.append(viol)
                if ms is not None:
                    times.append(ms)
            mean_loss = float(np.mean(losses))
            mean_viol = float(np.mean(viols)) if viols else None
            mean_ms = float(np.mean(times)) if times else None
            if replicates > 1:
                ci = 1.96 * float(np.std(losses))
                vci = 1.96 * float(np.std(viols)) if viols else None
                row = [method, format(eps, "g"), _fmt(mean_loss), _fmt(ci),
                       _fmt(mean_viol), _fmt(vci), _fmt(mean_ms)]
            else:
                row = [method, format(eps, "g"), _fmt(mean_loss), _fmt(mean_viol), _fmt(mean_ms)]
            lines.append(",".join(row))
    _write_text(out_dir / "results.csv", "\n".join(lines) + "\n")
    _write_json(
        out_dir / "manifest_compare.json",
        _manifest("compare", cfg["_sha256"], seed, {
            "methods": list(methods),
            "eps": priv["eps_list"],
            "replicates": replicates,
        }),
    )
    print(f"compared {len(methods)} method(s) x {len(priv['eps_list'])} eps -> {out_dir / 'results.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _parse_eps(text):
    if text is None:
        return None
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--eps must be a comma-separated number list: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorpriv",
        description="Synthesize, audit, and benchmark metric-private perturbation mechanisms.",
    )
    parser.add_argument("--version", action="version", version=f"anchorpriv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the instance seed")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument(
            "--threads", type=int, default=None,
            help=f"worker cap for pair evaluation (default: env {THREADS_ENV}, else 1)",
        )

    p_syn = sub.add_parser("synthesize", help="solve anchor mechanisms from a config")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--eps", type=str, default=None, help="comma list overriding config eps")
    common(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_aud = sub.add_parser("audit", help="ratio-audit a stored mechanism")
    p_aud.add_argument("--mechanism", required=True, help="mechanism JSON file")
    p_aud.add_argument("--eps", type=float, required=True)
    p_aud.add_argument("--samples", type=int, default=1000)
    p_aud.add_argument("--bins", type=int, default=40)
    common(p_aud)
    p_aud.set_defaults(func=cmd_audit, seed=0)

    p_cmp = sub.add_parser("compare", help="tabulate methods across budgets")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--eps", type=str, default=None)
    p_cmp.add_argument("--method", action="append", default=None,
                       help="repeatable method tag override")
    p_cmp.add_argument("--timing", action="store_true",
                       help="record wall times (breaks byte-identical reruns)")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_lb = sub.add_parser("lower-bound", help="universal loss lower bound")
    p_lb.add_argument("--config", required=True)
    p_lb.add_argument("--eps", type=str, default=None)
    common(p_lb)
    p_lb.set_defaults(func=cmd_lower_bound)
    return parser


def _env_threads() -> int:
    text = os.environ.get(THREADS_ENV, "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "eps") and isinstance(args.eps, str):
            args.eps = _parse_eps(args.eps)
        if args.threads is None:
            args.threads = _env_threads()
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
