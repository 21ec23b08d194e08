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

Exit codes: 0 success, 1 internal fault (with a traceback), 2 config
error, 3 infeasible/solver error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import hashlib
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, apo, audit, budget, evaluation, formats, mechanisms
from .errors import ConfigError, OutOfDomainError, SolverError
from .geometry import Partition, locate_cells
from .interpolation import Mechanism

BUDGET_MODES = ("sweep", "equal", "explicit")
# libyaml's safe loader where PyYAML was built with it (`import yaml`
# loads it then), else the pure-Python one: both build the same values,
# and grid8.yaml parses in 0.5 ms instead of 4.8 ms.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# ---------------------------------------------------------------------------
# Settings and config handling


@dataclass(frozen=True)
class PrivacySpec:
    """Metric order and budget settings of a run.

    Config keys: ``p`` in section ``metric``, the rest in ``privacy``.
    """

    p: float = 2.0
    eps: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
    budget_mode: str = "sweep"
    budget_convention: str = "half-dual"
    sweep_resolution: int = 5
    explicit_budget: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.p >= 1:
            raise ConfigError(f"metric.p must be >= 1, got {self.p}")
        if not self.eps or not all(0 < e < math.inf for e in self.eps):
            raise ConfigError("privacy.eps (or --eps) must list finite positive budgets, "
                              f"got {list(self.eps)}")
        # Output files, manifest entries and result rows are keyed by the
        # budget's :g label, so two budgets may not share one.
        labels = [f"{e:g}" for e in self.eps]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"privacy.eps lists budget {label} more than once")
        if self.budget_mode not in BUDGET_MODES:
            raise ConfigError(
                f"privacy.budget_mode must be one of {BUDGET_MODES}, got {self.budget_mode!r}"
            )
        if self.budget_convention not in budget.CONVENTIONS:
            raise ConfigError(
                f"privacy.budget_convention must be one of {budget.CONVENTIONS}, "
                f"got {self.budget_convention!r}"
            )
        if self.budget_mode == "explicit" and self.explicit_budget is None:
            raise ConfigError("privacy.explicit_budget required when budget_mode=explicit")
        if self.budget_mode != "explicit" and self.explicit_budget is not None:
            raise ConfigError(
                "privacy.explicit_budget is only read when privacy.budget_mode is explicit, "
                f"got budget_mode {self.budget_mode!r}")
        explicit = self.explicit_budget
        if explicit is not None and (len(explicit) != 2
                                     or not all(0 <= v < math.inf for v in explicit)):
            raise ConfigError("privacy.explicit_budget must have 2 finite entries >= 0 "
                              f"(one per axis), got {list(explicit)}")
        if self.budget_mode == "explicit":
            for e in self.eps:
                chk = budget.check_budget(budget.BudgetVector(explicit, e, self.p),
                                          self.budget_convention)
                if not chk.ok:
                    raise ConfigError(
                        f"privacy.explicit_budget {list(explicit)} violates composition at "
                        f"budget {e:g}: aggregate {chk.lhs:.6g} > bound {chk.rhs:.6g}")
        if self.sweep_resolution < 2:
            raise ConfigError(
                f"privacy.sweep_resolution must be >= 2, got {self.sweep_resolution}")


@dataclass(frozen=True)
class CompareSpec:
    """Settings of the ``compare`` command (config section ``compare``).

    ``coarse_grid`` None gives CoarseLP the instance's partition grid;
    ``tem_radius`` None gives TEM its default radius ``3 / eps``.
    """

    methods: tuple[str, ...] = ("AIPO", "AIPO-E", "EM", "Laplace", "RMP-EM", "CoarseLP", "LB")
    replicates: int = 1
    coarse_grid: tuple[int, ...] | None = None
    audit_samples: int = 300
    tem_radius: float | None = None

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("compare.methods (or --method) must name at least one method")
        for tag in self.methods:
            if tag not in METHODS:
                raise ConfigError(f"unknown method tag {tag!r}; known: {', '.join(METHODS)}")
            if self.methods.count(tag) > 1:
                raise ConfigError(
                    f"compare.methods (or --method) lists method {tag!r} more than once")
        if self.replicates < 1:
            raise ConfigError(f"compare.replicates must be >= 1, got {self.replicates}")
        if self.audit_samples < 2:
            raise ConfigError(
                "compare.audit_samples must be >= 2: the audit needs at least 2 sample "
                f"points, got {self.audit_samples}"
            )
        if self.coarse_grid is not None and (len(self.coarse_grid) != 2
                                             or min(self.coarse_grid) < 1):
            raise ConfigError("compare.coarse_grid must have 2 entries (one per axis), "
                              f"each >= 1, got {list(self.coarse_grid)}")
        if self.tem_radius is not None and not self.tem_radius > 0:
            raise ConfigError(f"compare.tem_radius must be > 0, got {self.tem_radius}")


@dataclass(frozen=True)
class AuditSection:
    """Config section ``audit``; its defaults are the ``audit`` command's flags'.

    No command reads this section, since ``audit`` takes a mechanism file
    and flags, not a config. It is accepted (and type-checked) because
    configs/example.yaml and the frozen benchmark inputs
    (perfbench/inputs/*.yaml) carry it.
    """

    samples: int = 1000
    bins: int = 40


@dataclass(frozen=True)
class RunConfig:
    """A config file as :func:`load_config` reads it through :data:`CONFIG_LAYOUT`."""

    instance: evaluation.InstanceSpec
    privacy: PrivacySpec
    compare: CompareSpec
    sha256: str
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"instance.seed (or --seed) must be >= 0, got {self.seed}")


# Where each config key lives: (section, settings class, fields). A key is
# the name of the field it sets; None stands for every field of the class
# that no other row names.
CONFIG_LAYOUT = (
    ("domain", evaluation.InstanceSpec, ("lower", "upper", "grid")),
    ("instance", evaluation.InstanceSpec, None),
    ("instance", RunConfig, ("seed",)),
    ("metric", PrivacySpec, ("p",)),
    ("privacy", PrivacySpec, None),
    ("compare", CompareSpec, None),
    ("audit", AuditSection, None),
)


def _config_keys() -> dict:
    """Section -> {key: (settings class, field type)} for every accepted key."""
    named = {(cls, name) for _, cls, names in CONFIG_LAYOUT for name in names or ()}
    keys = {}
    for section, cls, names in CONFIG_LAYOUT:
        hints = typing.get_type_hints(cls)
        if names is None:
            names = [f.name for f in fields(cls) if (cls, f.name) not in named]
        keys.setdefault(section, {}).update({name: (cls, hints[name]) for name in names})
    return keys


def _coerce(path: str, value, hint):
    """``value`` read as type ``hint``, with no lossy conversion.

    A bool takes only a YAML bool; an int rejects floats and bools; a float
    takes any number or "inf"; a tuple takes a YAML list; ``X | None``
    also takes null.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_coerce(f"{path}[{i}]", v, item) for i, v in enumerate(value))
    if hint is float and value in ("inf", "Infinity"):
        return math.inf
    if isinstance(value, bool):
        ok = hint is bool
    elif hint is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    return hint(value)


def load_config(path, eps=None, seed=None) -> RunConfig:
    """Read a YAML config strictly: every section, key and value is checked.

    Unknown sections and keys are errors, as are values that do not have
    their field's type (see :func:`_coerce`); an omitted key takes its
    field's default. ``eps`` and ``seed``, when given, replace
    ``privacy.eps`` and ``instance.seed`` before any setting is checked,
    so an explicit budget is checked at the budgets the run uses.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = yaml.load(raw, Loader=_YAML_LOADER) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    schema = _config_keys()
    values = {cls: {} for _, cls, _ in CONFIG_LAYOUT}
    for section, body in cfg.items():
        if section not in schema:
            raise ConfigError(f"unknown config section {section!r}; known: {', '.join(schema)}")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key, value in body.items():
            if key not in schema[section]:
                raise ConfigError(
                    f"{section}.{key}: unknown key; known: {', '.join(schema[section])}"
                )
            cls, hint = schema[section][key]
            values[cls][key] = _coerce(f"{section}.{key}", value, hint)
    if eps is not None:
        values[PrivacySpec]["eps"] = tuple(eps)
    if seed is not None:
        values[RunConfig]["seed"] = seed
    return RunConfig(
        instance=evaluation.InstanceSpec(**values[evaluation.InstanceSpec]),
        privacy=PrivacySpec(**values[PrivacySpec]),
        compare=CompareSpec(**values[CompareSpec]),
        sha256=hashlib.sha256(raw).hexdigest(),
        **values[RunConfig],
    )


# ---------------------------------------------------------------------------
# Pipeline assembly (shared by synthesize/compare and the test suite)


def _surrogate(instance):
    """Surrogate coefficients of ``instance``, computed once per instance."""
    if "surrogate" not in instance.derived:
        instance.derived["surrogate"] = apo.surrogate_coefficients(
            instance.partition, instance.prior, instance.loss, instance.outputs)
    return instance.derived["surrogate"]


def _solved(instance, key, kinds, solve, start=None):
    """(result, LpSolution) of the program ``key``, solved at most once per instance.

    ``solve(start)`` returns (result, LpSolution). The first call for
    ``key`` solves from ``start`` if given, else from the solution last
    kept under ``kinds[0]`` (from scratch without either); later ones look
    it up. Either way the solution, without its multipliers
    (``LpSolution.as_start``), starts the next solve of every kind in
    ``kinds``. Neighbouring budgets' programs differ only in their ratio
    coefficients, so simplex from the last optimal basis is a parametric
    re-solve; a smaller budget's table meets a larger budget's rows, and
    the solve starts there (see ``lpcore.solve_lp``). An anchor solution
    also carries its master's output columns (``LpSolution.columns``),
    which seed the next anchor solve's master, and that master's basis.
    """
    store = instance.derived.setdefault("solved", {})
    starts = instance.derived.setdefault("starts", {})
    if key not in store:
        if start is None and kinds:
            start = starts.get(kinds[0])
        result, solution = solve(start)
        store[key] = result, solution.as_start()
    for kind in kinds:
        starts[kind] = store[key][1]
    return store[key]


def make_aipo_mechanism(instance, eps: float, priv: PrivacySpec = PrivacySpec()):
    """Solve the anchor pipeline at one total budget.

    ``priv`` gives the metric order and how the per-axis budgets are
    chosen; its ``eps`` list is not read. Returns (mechanism, best budget
    vector, sweep curve or None, failed sweep candidates as (vector,
    message) pairs). The sweep evaluator is the optimal value of each
    candidate's program, i.e. the surrogate expected loss of its solved
    table.

    The equal split starts from the one solved last for ``instance``, at
    any budget. The sweep searches the arc through the grid of
    ``budget.feasible_allocations`` (``budget.optimize_allocation``),
    scoring each split by its program's optimum and that optimum's
    derivative in the per-axis budgets (``apo.budget_gradient``). The
    search solves the equal split first, and every other split starts
    from the split of this search solved nearest to it along the arc. An
    explicit vector starts from scratch.
    """
    part, outputs = instance.partition, instance.outputs
    p, convention = priv.p, priv.budget_convention
    coeffs = _surrogate(instance)
    n = part.n_dims

    def anchor(bv, kinds=(), start=None):
        """((table of ``bv``, its budget gradient), the LpSolution, as a start)."""
        def solve(start):
            lp = apo.build_approx_apo(part, outputs, bv, coeffs, convention)
            table, solution = apo.solve_approx_apo(lp, start=start)
            return (table, apo.budget_gradient(part, lp, solution)), solution

        return _solved(instance, (tuple(bv.eps), bv.total_eps, bv.p, convention), kinds, solve,
                       start)

    equal = budget.equal_split(eps, p, n, convention=convention)
    centre = ("equal split",)
    curve, failed = None, []
    if priv.budget_mode == "equal":
        best = equal
    elif priv.budget_mode == "explicit":
        best = budget.BudgetVector(priv.explicit_budget, eps, p)
    else:
        searched = {}  # eps_1 -> kept solution of each split this search solved

        def evaluate(bv):
            near = min(searched, key=lambda e1: abs(e1 - bv.eps[0]), default=None)
            kinds = centre if np.array_equal(bv.eps, equal.eps) else ()
            (table, gradient), searched[float(bv.eps[0])] = anchor(bv, kinds, searched.get(near))
            return float(np.sum(coeffs.matrix * table.probs)), gradient

        best, curve, failed = budget.optimize_allocation(
            budget.feasible_allocations(eps, p, n_dims=n, resolution=priv.sweep_resolution,
                                        convention=convention),
            evaluate, convention=convention)
    (table, _), _ = anchor(best, centre if priv.budget_mode == "equal" else ())
    mech = Mechanism(part, table, outputs, budget=best, total_eps=eps, metric_p=p)
    return mech, best, curve, failed


def _aipo_relaxed(instance, eps, priv, comp):
    part, outputs = instance.partition, instance.outputs
    table, _ = _solved(instance, ("AIPO-R", eps, priv.p), ("AIPO-R",), lambda start: (
        apo.solve_approx_apo(apo.build_aipo_relaxed(
            part, outputs, eps, priv.p, _surrogate(instance)), start=start)))
    return Mechanism(part, table, outputs, total_eps=eps, metric_p=priv.p)


def _coarse_lp(instance, eps, priv, comp):
    outputs, bounds = instance.outputs, instance.partition.bounds
    coarse_part = Partition(*bounds, comp.coarse_grid or instance.partition.counts)
    reps = coarse_part.cell_lower + 0.5 * coarse_part.deltas
    # Each representative carries the prior mass of its cell.
    masses = np.bincount(
        locate_cells(coarse_part, instance.prior.points),
        weights=instance.prior.masses, minlength=coarse_part.n_cells,
    )
    key = ("CoarseLP", eps, priv.p, tuple(coarse_part.counts))
    table, _ = _solved(instance, key, ("CoarseLP",), lambda start: apo.solve_approx_apo(
        apo.build_coarse_lp(reps, masses, outputs, eps, priv.p, instance.loss), start=start))
    return mechanisms.CoarseLpMechanism(reps, table, outputs, bounds, metric_p=priv.p)


def _lower_bound(instance, eps, priv, comp):
    """The cell bound's value at ``eps``, solved once per instance and budget.

    The first call also solves every other budget of ``priv.eps`` not yet
    solved, in one ``apo.lower_bound`` call, which stacks the budgets'
    programs; each is kept in the ``_solved`` store under its own key.
    """
    store = instance.derived.setdefault("solved", {})
    if ("LB", eps, priv.p) not in store:
        budgets = [e for e in dict.fromkeys([*priv.eps, eps]) if ("LB", e, priv.p) not in store]
        bounds = apo.lower_bound(instance.partition, instance.outputs, budgets, priv.p,
                                 instance.loss, instance.prior)
        for e, (value, solution) in zip(budgets, bounds):
            store["LB", e, priv.p] = value, solution.as_start()
    return store["LB", eps, priv.p][0]


def _remapped(base):
    """Builder of the Bayesian posterior-loss remap of ``base``'s mechanism."""
    def build(instance, eps, priv, comp):
        mech = base(instance, eps, priv, comp)
        return mechanisms.bayesian_remap(mech, instance.prior, instance.loss)
    return build


# Method tag -> builder(instance, eps, priv, comp). Every builder returns a
# mechanism with log_probs, except LB's, which returns the bound's value.
METHODS = {
    "AIPO": lambda inst, eps, priv, comp: make_aipo_mechanism(inst, eps, priv)[0],
    "AIPO-E": lambda inst, eps, priv, comp: make_aipo_mechanism(
        inst, eps, replace(priv, budget_mode="equal", explicit_budget=None))[0],
    "AIPO-R": _aipo_relaxed,
    "EM": lambda inst, eps, priv, comp: mechanisms.ExponentialMechanism(
        inst.outputs, inst.partition.bounds, eps, priv.p),
    "Laplace": lambda inst, eps, priv, comp: mechanisms.PlanarLaplaceMechanism(
        inst.outputs, inst.partition.bounds, eps),
    "TEM": lambda inst, eps, priv, comp: mechanisms.TruncatedExponentialMechanism(
        inst.outputs, inst.partition.bounds, eps, priv.p, comp.tem_radius),
    "CoarseLP": _coarse_lp,
    "LB": _lower_bound,
}
METHODS.update({f"RMP-{tag}": _remapped(METHODS[tag]) for tag in ("EM", "Laplace", "TEM")})


def make_method(tag: str, instance, eps: float, priv: PrivacySpec = PrivacySpec(),
                comp: CompareSpec = CompareSpec()):
    """Build the comparison method ``tag``, a key of :data:`METHODS`.

    Returns a mechanism with log_probs, or for "LB" the bound's value.
    """
    return METHODS[tag](instance, eps, priv, comp)


# ---------------------------------------------------------------------------
# Commands


def _manifest(command: str, seed: int, **settings) -> dict:
    """A command's manifest: its name, seed, package version and ``settings``."""
    return {"command": command, "seed": seed, "package_version": __version__, **settings}


def _run_settings(args):
    """(config, privacy settings, instance seed) of a config-driven command.

    ``--eps`` replaces the config's budget list and ``--seed`` its seed.
    """
    run = load_config(args.config, eps=args.eps, seed=args.seed)
    return run, run.privacy, run.seed


def cmd_synthesize(args) -> int:
    run, priv, seed = _run_settings(args)
    out_dir = Path(args.out_dir)
    instance = evaluation.synth_instance(run.instance, seed=seed)
    evaluation.save_instance(instance, out_dir / "instance")
    written = []
    failed = {}
    for eps in priv.eps:
        mech, best, curve, failures = make_aipo_mechanism(instance, eps, priv)
        failed[f"{eps:g}"] = [
            {"budget_eps": [float(v) for v in bv.eps], "message": message}
            for bv, message in failures
        ]
        name = f"mechanism_eps{eps:g}.json"
        mech.save(out_dir / name)
        written.append(name)
        if curve is not None:
            formats.write_text(out_dir / f"sweep_eps{eps:g}.csv",
                               formats.csv_text(("eps1", "eps2", "loss"), curve))
    formats.write_json(
        out_dir / "manifest_synthesize.json",
        _manifest("synthesize", seed, config_sha256=run.sha256, eps=list(priv.eps),
                  budget_mode=priv.budget_mode, budget_convention=priv.budget_convention,
                  mechanisms=written, failed_candidates=failed),
    )
    print(f"synthesized {len(written)} mechanism(s) -> {out_dir}")
    return 0


def cmd_audit(args) -> int:
    for flag, value, least in (("--samples", args.samples, 2), ("--bins", args.bins, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    mech_bytes = Path(args.mechanism).read_bytes()
    mech = Mechanism.from_json_dict(json.loads(mech_bytes))
    out_dir = Path(args.out_dir)
    report = audit.violation_ratio(mech, args.eps, mech.metric_p,
                                   sample_count=args.samples, seed=args.seed)
    edges, counts = audit.ppr_histogram(
        mech, args.eps, mech.metric_p,
        sample_count=min(args.samples, audit.HISTOGRAM_SAMPLES),
        bins=args.bins, seed=args.seed,
    )
    formats.write_json(out_dir / "audit_report.json", report.to_json_dict())
    formats.write_text(out_dir / "ppr_histogram.csv", formats.csv_text(
        ("bin_lo", "bin_hi", "count"), zip(edges[:-1], edges[1:], counts)))
    formats.write_json(
        out_dir / "manifest_audit.json",
        _manifest("audit", args.seed, mechanism_sha256=hashlib.sha256(mech_bytes).hexdigest(),
                  eps=args.eps, samples=args.samples),
    )
    print(
        f"violation_ratio={report.violation_ratio:.2f}% over {report.pair_count} pairs "
        f"(max_ppr={report.max_ppr:.4g}, eps={args.eps:g})"
    )
    return 0


def cmd_lower_bound(args) -> int:
    run, priv, seed = _run_settings(args)
    instance = evaluation.synth_instance(run.instance, seed=seed)
    values = {f"{eps:g}": make_method("LB", instance, eps, priv) for eps in priv.eps}
    out_dir = Path(args.out_dir)
    formats.write_json(out_dir / "lower_bound.json", {
        "metric_p": priv.p,
        "seed": seed,
        "values": values,
    })
    formats.write_json(
        out_dir / "manifest_lower_bound.json",
        _manifest("lower-bound", seed, config_sha256=run.sha256, eps=list(priv.eps)),
    )
    for k, v in values.items():
        print(f"eps={k}: lower_bound={v:.6g}")
    return 0


def _compare_cell(method, instance, eps, priv, comp, sample, timing):
    """One (method, eps, replicate) evaluation -> (loss, violation% or None, ms).

    ``sample`` is the replicate's :class:`audit.PairSample`.
    """
    start = time.perf_counter()
    built = make_method(method, instance, eps, priv, comp)
    if isinstance(built, float):  # a bound's value, with nothing to audit
        loss_val, viol = built, None
    else:
        loss_val = evaluation.expected_loss(built, instance.prior, instance.loss)
        report = audit.violation_ratio(built, eps, priv.p, sample_count=comp.audit_samples,
                                       seed=sample.seed, top_k=0, sample=sample)
        viol = report.violation_ratio
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return loss_val, viol, elapsed_ms if timing else None


def cmd_compare(args) -> int:
    run, priv, seed = _run_settings(args)
    comp = replace(run.compare, methods=tuple(args.method)) if args.method else run.compare
    methods, replicates = comp.methods, comp.replicates
    out_dir = Path(args.out_dir)

    # cells[c] collects each replicate's (loss, violation%, ms) of grid[c].
    grid = [(method, eps) for method in methods for eps in priv.eps]
    cells = [[] for _ in grid]
    for r in range(replicates):
        inst = evaluation.synth_instance(run.instance, seed=seed + r)
        # Every cell of a replicate audits on the same points, so their pair
        # distances are computed once per replicate, and one replicate's
        # are dropped before the next one's are built.
        sample = audit.PairSample(inst.partition.bounds, priv.p, comp.audit_samples, seed + r,
                                  keep=True)
        for (method, eps), results in zip(grid, cells):
            results.append(_compare_cell(method, inst, eps, priv, comp, sample, args.timing))
        del inst, sample
    header = ["method", "eps", "utility_loss", "violation_ratio", "wall_time_ms"]
    if replicates > 1:
        header = [
            "method", "eps", "utility_loss", "utility_loss_ci95",
            "violation_ratio", "violation_ratio_ci95", "wall_time_ms",
        ]
    rows = []
    for (method, eps), results in zip(grid, cells):
        losses = [loss_val for loss_val, _, _ in results]
        viols = [viol for _, viol, _ in results if viol is not None]
        times = [ms for _, _, ms in results if ms is not None]
        mean_loss = float(np.mean(losses))
        mean_viol = float(np.mean(viols)) if viols else None
        mean_ms = float(np.mean(times)) if times else None
        if replicates > 1:
            ci = 1.96 * float(np.std(losses))
            vci = 1.96 * float(np.std(viols)) if viols else None
            rows.append([method, format(eps, "g"), mean_loss, ci, mean_viol, vci, mean_ms])
        else:
            rows.append([method, format(eps, "g"), mean_loss, mean_viol, mean_ms])
    formats.write_text(out_dir / "results.csv", formats.csv_text(header, rows))
    formats.write_json(
        out_dir / "manifest_compare.json",
        _manifest("compare", seed, config_sha256=run.sha256, methods=list(methods),
                  eps=list(priv.eps), replicates=replicates),
    )
    print(f"compared {len(methods)} method(s) x {len(priv.eps)} eps -> {out_dir / 'results.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _parse_eps(text):
    if text is None:
        return None
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--eps must be a comma-separated number list: {exc}") from exc
    if not values:
        raise ConfigError(f"--eps must list at least one budget, got {text!r}")
    return values


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
            "--threads", type=int, default=1,
            help="accepted and ignored, but must be >= 1: evaluation runs on one thread",
        )

    p_syn = sub.add_parser("synthesize", help="solve anchor mechanisms from a config")
    p_syn.add_argument("--config", required=True)
    p_syn.add_argument("--eps", type=str, default=None, help="comma list overriding config eps")
    common(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_aud = sub.add_parser("audit", help="ratio-audit a stored mechanism")
    p_aud.add_argument("--mechanism", required=True, help="mechanism JSON file")
    p_aud.add_argument("--eps", type=float, required=True)
    p_aud.add_argument(
        "--samples", type=int, default=AuditSection.samples,
        help="points the audit draws; ppr_histogram.csv bins the pairs of the first "
             f"{audit.HISTOGRAM_SAMPLES} of them",
    )
    p_aud.add_argument("--bins", type=int, default=AuditSection.bins)
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


@functools.cache
def _freeze_heap_at_exit():
    """Register :func:`gc.freeze` to run at interpreter exit, once per process.

    At exit CPython runs full collections over every object still tracked:
    the ~24k that numpy, this package and HiGHS leave after a grid8
    ``lower-bound``, at 4-5 ms per pass on a 2-core VM. Frozen objects are
    skipped: that process spent a median 26.8 ms between ``main`` returning
    and exit without this hook, and 6.2 ms with it (15 processes each).
    Collection while a command runs is unchanged.
    """
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "eps") and isinstance(args.eps, str):
            args.eps = _parse_eps(args.eps)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except OutOfDomainError:
        # Commands only evaluate points drawn inside the domain, so this is
        # an internal fault, not a config error: exit 1 with the traceback.
        raise
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
