import functools
import hashlib
import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpriv import apo, audit, budget, evaluation, formats, lpcore
from anchorpriv.cli import (
    CompareSpec,
    PrivacySpec,
    _surrogate,
    load_config,
    main,
    make_aipo_mechanism,
    make_method,
)
from anchorpriv.errors import ConfigError, SolverError
from anchorpriv.evaluation import InstanceSpec
from anchorpriv.interpolation import Mechanism

BASE_CONFIG = {
    "domain": {"lower": [0.0, 0.0], "upper": [2.0, 2.0], "grid": [2, 2]},
    "metric": {"p": 2.0},
    "privacy": {"eps": [0.4, 0.8], "budget_mode": "equal"},
    "instance": {
        "seed": 3,
        "outputs": [2, 2],
        "graph_size": 5,
        "samples_per_cell": 2,
        "n_tasks": 5,
    },
    "compare": {
        "methods": ["AIPO", "EM", "LB"],
        "audit_samples": 80,
        "coarse_grid": [2, 2],
    },
}


def write_config(tmp_path, override=None):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if override:
        for key, section in override.items():
            cfg.setdefault(key, {}).update(section)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


ROOT = Path(__file__).resolve().parent.parent


def _perfbench_checks(monkeypatch):
    """The benchmark's output checks, ``perfbench/checks.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py"
    )
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checks)  # its dataclass looks itself up
    spec.loader.exec_module(checks)
    return checks


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _traced_summary(tmp_path, *command, patch=None) -> dict:
    """Run one command under ``perfbench/launch.py trace``; return the tracer's summary.

    ``patch``, Python source, runs in the command's process first, with the
    package importable.
    """
    root = Path(__file__).resolve().parent.parent
    launch = [str(root / "perfbench" / "launch.py")]
    if patch is not None:
        launch = ["-c", "import sys\nsys.path[:0] = ['perfbench', 'src']\n" + patch
                  + "\nimport launch\nsys.exit(launch.main(sys.argv[1:]))"]
    proc = subprocess.run(
        [sys.executable, *launch, "trace",
         str(tmp_path / "marks.json"), *command, "--threads", "1", "--out-dir", str(tmp_path)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", root / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.summarize(tmp_path / "marks.spans")


class TestSynthesize:
    def test_writes_mechanisms_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["synthesize", "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        assert (out / "mechanism_eps0.4.json").exists()
        assert (out / "mechanism_eps0.8.json").exists()
        manifest = json.loads((out / "manifest_synthesize.json").read_text())
        assert manifest["command"] == "synthesize"
        assert manifest["seed"] == 3
        assert len(manifest["config_sha256"]) == 64
        assert manifest["failed_candidates"] == {"0.4": [], "0.8": []}

    def test_sweep_mode_emits_curve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"privacy": {"budget_mode": "sweep", "sweep_resolution": 2, "eps": [0.6]}},
        )
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out)]) == 0
        curve = (out / "sweep_eps0.6.csv").read_text().strip().splitlines()
        assert curve[0] == "eps1,eps2,loss"
        assert len(curve) > 2

    def test_failed_candidates_recorded(self, tmp_path, monkeypatch):
        # At desk eps 1.2 the search walks from the equal split toward larger
        # eps_1. Failing there, the first step is recorded, ends that side,
        # and the walk turns to the other side.
        build = apo.build_approx_apo

        def failing_build(part, outputs, bv, *args, **kwargs):
            if bv.eps[0] > bv.eps[1]:
                raise SolverError(f"no solve at {bv.eps[0]:.4f}")
            return build(part, outputs, bv, *args, **kwargs)

        out = tmp_path / "out"
        args = ["synthesize", "--config", str(DESK), "--eps", "1.2", "--out-dir"]
        assert main([*args, str(tmp_path / "free")]) == 0
        free = formats.read_float_csv(tmp_path / "free" / "sweep_eps1.2.csv")
        assert np.all(free[:, 0] >= free[:, 1] - 1e-12)  # the free walk's side
        monkeypatch.setattr(apo, "build_approx_apo", failing_build)
        assert main([*args, str(out)]) == 0
        failed = json.loads((out / "manifest_synthesize.json").read_text())["failed_candidates"]
        assert list(failed) == ["1.2"] and len(failed["1.2"]) == 1
        (entry,) = failed["1.2"]
        e1, e2 = entry["budget_eps"]
        assert e1 > e2 and entry["message"] == f"no solve at {e1:.4f}"
        curve = formats.read_float_csv(out / "sweep_eps1.2.csv")
        assert len(curve) >= 2 and np.all(curve[:, 0] <= curve[:, 1])
        assert curve[-1, 0] == curve[-1, 1]  # the equal split, then the other side

    def test_eps_override_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([
            "synthesize", "--config", str(cfg), "--out-dir", str(out), "--eps", "0.5",
        ]) == 0
        assert (out / "mechanism_eps0.5.json").exists()
        assert not (out / "mechanism_eps0.4.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_instance_bundle_is_one_json_document(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert [p.name for p in (out / "instance").iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "instance" / "manifest.json").read_text())
        assert manifest["version"] == 2
        inst = evaluation.synth_instance(load_config(cfg).instance, seed=3)
        back = evaluation.load_instance(out / "instance")
        assert back.graph.edges == inst.graph.edges
        assert np.array_equal(back.prior.points, inst.prior.points)


class TestAudit:
    def test_report_and_histogram(self, tmp_path):
        cfg = write_config(tmp_path)
        mech_dir = tmp_path / "mech"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(mech_dir)]) == 0
        out = tmp_path / "audit"
        code = main([
            "audit", "--mechanism", str(mech_dir / "mechanism_eps0.4.json"),
            "--eps", "0.4", "--samples", "100", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["violation_ratio_percent"] == 0.0
        hist = (out / "ppr_histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"

    def test_threads_flag_changes_no_output(self, tmp_path):
        # --threads once spread the row blocks over a worker pool; it is
        # accepted and ignored now.
        cfg = write_config(tmp_path)
        mech = tmp_path / "mech" / "mechanism_eps0.8.json"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(mech.parent)]) == 0
        for threads in ("1", "2"):
            assert main(["audit", "--mechanism", str(mech), "--eps", "0.8", "--samples", "200",
                         "--threads", threads, "--out-dir", str(tmp_path / threads)]) == 0
        assert read_tree(tmp_path / "1") == read_tree(tmp_path / "2")

    def test_manifest_hashes_the_mechanism_file(self, tmp_path):
        cfg = write_config(tmp_path)
        mech = tmp_path / "mech" / "mechanism_eps0.4.json"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(mech.parent)]) == 0
        out = tmp_path / "audit"
        assert main(["audit", "--mechanism", str(mech), "--eps", "0.4", "--samples", "20",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest_audit.json").read_text())
        assert manifest["mechanism_sha256"] == hashlib.sha256(mech.read_bytes()).hexdigest()
        assert "config_sha256" not in manifest

    def test_histogram_bins_the_first_300_points(self, tmp_path):
        # ppr_histogram.csv covers the pairs of the audit's first
        # audit.HISTOGRAM_SAMPLES points, or of all of them when fewer; one
        # seed draws the same first points at any --samples.
        cfg = write_config(tmp_path)
        mech = tmp_path / "mech" / "mechanism_eps0.4.json"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(mech.parent)]) == 0

        def histogram(samples):
            out = tmp_path / f"audit{samples}"
            assert main(["audit", "--mechanism", str(mech), "--eps", "0.4",
                         "--samples", str(samples), "--out-dir", str(out)]) == 0
            return out / "ppr_histogram.csv"

        assert audit.HISTOGRAM_SAMPLES == 300
        capped = histogram(1000)
        assert formats.read_float_csv(capped)[:, 2].sum() == 300 * 299 // 2
        assert capped.read_bytes() == histogram(300).read_bytes()
        assert formats.read_float_csv(histogram(50))[:, 2].sum() == 50 * 49 // 2

    def test_infinite_metric_order_loads_and_audits(self, tmp_path):
        # At metric.p: inf the files store "metric_p": Infinity, a token
        # Python's json module reads back.
        cfg = tmp_path / "desk.yaml"
        desk = yaml.safe_load(DESK.read_text())
        desk["metric"]["p"] = "inf"
        cfg.write_text(yaml.safe_dump(desk))
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--eps", "0.8",
                     "--out-dir", str(out)]) == 0
        mech_file = out / "mechanism_eps0.8.json"
        assert '"metric_p": Infinity' in mech_file.read_text()
        assert Mechanism.load(mech_file).metric_p == math.inf
        assert main(["audit", "--mechanism", str(mech_file), "--eps", "0.8", "--samples", "100",
                     "--out-dir", str(tmp_path / "audit")]) == 0
        report = json.loads((tmp_path / "audit" / "audit_report.json").read_text())
        assert report["metric_p"] == math.inf

    def test_missing_mechanism_maps_to_io_exit(self, tmp_path):
        code = main([
            "audit", "--mechanism", str(tmp_path / "nope.json"),
            "--eps", "0.4", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 4


class TestCompare:
    def test_results_table(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "method,eps,utility_loss,violation_ratio,wall_time_ms"
        assert len(lines) == 1 + 3 * 2  # methods x eps
        rows = [ln.split(",") for ln in lines[1:]]
        by_method = {}
        for method, eps, loss, viol, ms in rows:
            by_method.setdefault(method, {})[eps] = (loss, viol, ms)
            assert ms == ""  # timing off by default keeps reruns identical
        for eps in ("0.4", "0.8"):
            lb = float(by_method["LB"][eps][0])
            assert lb <= float(by_method["AIPO"][eps][0]) + 1e-9
            assert lb <= float(by_method["EM"][eps][0]) + 1e-9
        assert by_method["LB"]["0.4"][1] == ""  # no audit for the bound

    def test_rerun_is_byte_identical(self, tmp_path):
        # The rerun's --threads 2 is accepted and changes nothing.
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out2),
                     "--threads", "2"]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_explicit_mode_keeps_aipo_e_on_the_equal_split(self, tmp_path):
        # AIPO-E's spec once kept the explicit vector under budget_mode equal,
        # which the spec rejects: compare solved every AIPO cell, then exited 2.
        rows = {}
        for mode, extra in (("explicit", {"explicit_budget": [0.1, 0.15]}), ("equal", {})):
            cfg = write_config(tmp_path, {"privacy": {"budget_mode": mode, **extra},
                                          "compare": {"methods": ["AIPO", "AIPO-E"]}})
            out = tmp_path / mode
            assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
            lines = (out / "results.csv").read_text().strip().splitlines()[1:]
            rows[mode] = {tuple(ln.split(",")[:2]): ln for ln in lines}
        assert len(rows["explicit"]) == 2 * 2  # methods x eps
        for eps in ("0.4", "0.8"):
            # AIPO-E solves the equal split whatever the config's mode.
            assert rows["explicit"][("AIPO-E", eps)] == rows["equal"][("AIPO-E", eps)]
            assert (rows["explicit"][("AIPO-E", eps)].split(",")[2:]
                    == rows["equal"][("AIPO", eps)].split(",")[2:])

    def test_cells_share_one_sample_and_audit_as_a_standalone_audit(self, tmp_path,
                                                                    monkeypatch):
        methods = ["AIPO", "EM", "Laplace", "CoarseLP"]
        cfg = write_config(tmp_path, {"compare": {"methods": methods, "replicates": 2,
                                                  "audit_samples": 150}})
        built = []
        block_distances = audit.lp_distance_matrix
        monkeypatch.setattr(audit, "lp_distance_matrix",
                            lambda *args: built.append(args) or block_distances(*args))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
        # One pair sample per replicate: its two row blocks are built once
        # for all 4 methods x 2 budgets.
        assert len(built) == 2 * 2
        monkeypatch.undo()
        run = load_config(cfg)
        instances = [evaluation.synth_instance(run.instance, seed=run.seed + r)
                     for r in range(2)]
        lines = (out / "results.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            method, eps, _, _, viol, _, _ = line.split(",")
            want = [audit.violation_ratio(make_method(method, inst, float(eps), run.privacy,
                                                      run.compare),
                                          float(eps), run.privacy.p, sample_count=150,
                                          seed=run.seed + r).violation_ratio
                    for r, inst in enumerate(instances)]
            assert float(viol) == float(np.mean(want))
        assert len(lines) == 4 * 2

    def test_replicates_keep_one_sample_at_a_time(self, tmp_path, monkeypatch):
        # Each replicate's kept pair sample is released before the next
        # replicate's blocks are built.
        live = weakref.WeakSet()
        kept_at_build = []

        class Tracked(audit.PairSample):
            def blocks(self):
                if self._kept is None:
                    kept_at_build.append(sum(s._kept is not None for s in live))
                live.add(self)
                return super().blocks()

        monkeypatch.setattr(audit, "PairSample", Tracked)
        cfg = write_config(tmp_path, {"compare": {"methods": ["EM", "Laplace"],
                                                  "replicates": 2}})
        assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 0
        assert kept_at_build == [0, 0]

    def test_replicates_add_ci_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"compare": {"replicates": 2, "methods": ["EM"]}})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = (out / "results.csv").read_text().splitlines()[0]
        assert header == (
            "method,eps,utility_loss,utility_loss_ci95,"
            "violation_ratio,violation_ratio_ci95,wall_time_ms"
        )

    def test_unknown_method_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        code = main([
            "compare", "--config", str(cfg), "--out-dir", str(tmp_path / "x"),
            "--method", "Quantum",
        ])
        assert code == 2

    def test_duplicate_or_empty_method_list_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        cases = (
            ({}, ["--method", "EM", "--method", "EM"], "lists method 'EM' more than once"),
            ({"compare": {"methods": ["EM", "LB", "EM"]}}, [], "lists method 'EM' more than once"),
            ({"compare": {"methods": []}}, [], "compare.methods (or --method) must name"),
        )
        for override, flags, message in cases:
            cfg = write_config(tmp_path, override)
            code = main(["compare", "--config", str(cfg), "--out-dir", str(out), *flags])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_timing_fills_wall_times(self, tmp_path):
        # Without --timing the column stays empty (test_results_table) and
        # reruns are byte-identical (test_rerun_is_byte_identical).
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out), "--timing"]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0].endswith(",wall_time_ms") and len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            ms = float(line.split(",")[-1])
            assert math.isfinite(ms) and ms >= 0

    def test_method_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(cfg), "--out-dir", str(out),
            "--method", "EM", "--eps", "0.4",
        ]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("EM,")


class TestInstanceReuse:
    def test_anchor_methods_share_coefficients_and_tables(self, monkeypatch):
        spec = InstanceSpec(grid=(2, 2), outputs=(2, 2), graph_size=5,
                            samples_per_cell=2, n_tasks=5)
        inst = evaluation.synth_instance(spec, seed=3)
        priv = PrivacySpec(sweep_resolution=2)
        solve, surrogate = apo.solve_approx_apo, apo.surrogate_coefficients
        solves, surrogates = [], []
        monkeypatch.setattr(apo, "solve_approx_apo",
                            lambda lp, **kw: solves.append(lp) or solve(lp, **kw))
        monkeypatch.setattr(apo, "surrogate_coefficients",
                            lambda *args: surrogates.append(args) or surrogate(*args))
        _, _, curve, failed = make_aipo_mechanism(inst, 0.6, priv)
        # One solve per split the search solved; running AIPO again solves none.
        assert len(solves) == len(curve) and failed == []
        make_method("AIPO", inst, 0.6, priv)
        assert len(solves) == len(curve)
        # The equal split is one of the search's points: no new solve.
        aipo_e = make_method("AIPO-E", inst, 0.6, priv)
        assert len(solves) == len(curve)
        make_method("AIPO-R", inst, 0.6, priv)
        assert len(surrogates) == 1
        alone = make_method("AIPO-E", evaluation.synth_instance(spec, seed=3), 0.6, priv)
        assert aipo_e.to_json_dict() == alone.to_json_dict()


class TestWarmSweep:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sweep_matches_cold_solves(self, monkeypatch, p):
        # The search starts every point but the equal split from the basis
        # of the solved point nearest to it; it must pick the budget that
        # the same search picks with every program solved from scratch,
        # with the same tables.
        desk = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "desk.yaml"
        spec = load_config(desk).instance
        priv = PrivacySpec(p=p)
        inst = evaluation.synth_instance(spec, seed=6)
        starts = []
        solve_lp = apo.solve_lp
        monkeypatch.setattr(apo, "solve_lp",
                            lambda lp, **kw: starts.append(kw.get("start")) or solve_lp(lp, **kw))
        _, best, curve, failed = make_aipo_mechanism(inst, 0.8, priv)
        assert failed == [] and len(starts) == len(curve)
        assert starts[0] is None and all(s is not None for s in starts[1:])
        # Kept solutions carry their basis and values but not their multipliers.
        kept = [s for _, s in inst.derived["solved"].values()]
        kept += list(inst.derived["starts"].values())
        assert all(s.values is not None and s.multipliers is None and s.basis is not None
                   for s in kept + starts[1:])

        cold_inst = evaluation.synth_instance(spec, seed=6)
        monkeypatch.setattr(apo, "solve_lp", lambda lp, start=None, **kw: solve_lp(lp, **kw))
        _, cold_best, cold_curve, _ = make_aipo_mechanism(cold_inst, 0.8, priv)
        assert best.eps.tobytes() == cold_best.eps.tobytes()
        assert [row[:2] for row in curve] == [row[:2] for row in cold_curve]
        cold = cold_inst.derived["solved"]
        for key, ((table, _), _) in inst.derived["solved"].items():
            assert np.max(np.abs(table.probs - cold[key][0][0].probs)) <= 1e-12


DESK = ROOT / "perfbench" / "inputs" / "desk.yaml"


def desk_config(tmp_path, override):
    """The desk config with some sections' keys replaced, written to ``tmp_path``."""
    cfg = yaml.safe_load(DESK.read_text())
    for key, section in override.items():
        cfg[key].update(section)
    path = tmp_path / "desk.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _spy_solutions(monkeypatch):
    """Record the LpSolution of every solve_lp call made through apo."""
    solutions = []
    solve_lp = apo.solve_lp

    def spy(lp, **kw):
        solutions.append(solve_lp(lp, **kw))
        return solutions[-1]

    monkeypatch.setattr(apo, "solve_lp", spy)
    return solutions


def _desk_budgets(monkeypatch, p, cold):
    """AIPO budget vectors, AIPO-R and CoarseLP tables and LB values over the desk budgets.

    Every method runs on one instance, method by method as compare does;
    ``cold`` drops every start, so each program is solved from scratch.
    """
    run = load_config(DESK)
    inst = evaluation.synth_instance(run.instance, seed=6)
    priv = PrivacySpec(p=p, eps=run.privacy.eps)
    out = {}
    with monkeypatch.context() as m:
        if cold:
            solve_lp = apo.solve_lp
            m.setattr(apo, "solve_lp", lambda lp, start=None, **kw: solve_lp(lp, **kw))
        for eps in priv.eps:
            _, best, _, failed = make_aipo_mechanism(inst, eps, priv)
            assert failed == []
            out["AIPO", eps] = best.eps
        for tag in ("AIPO-R", "CoarseLP", "LB"):
            for eps in priv.eps:
                built = make_method(tag, inst, eps, priv, run.compare)
                out[tag, eps] = built if tag == "LB" else built.table.probs
    return out


class TestBudgetStarts:
    """Each budget's programs start from the previous budget's basis."""

    @pytest.mark.parametrize("methods", [("AIPO-E", "AIPO"), ("AIPO", "AIPO-E")])
    def test_sweep_warm_starts_in_either_method_order(self, tmp_path, monkeypatch, methods):
        # The equal split is solved once, by whichever method comes first;
        # a cached one still starts the search's first step.
        run = load_config(DESK)
        searched = make_aipo_mechanism(evaluation.synth_instance(run.instance, seed=6), 0.8,
                                       run.privacy)[2]
        solutions = _spy_solutions(monkeypatch)
        flags = [arg for tag in methods for arg in ("--method", tag)]
        assert main(["compare", "--config", str(DESK), "--eps", "0.8", *flags,
                     "--out-dir", str(tmp_path / "cmp")]) == 0
        assert len(searched) > 1
        assert [s.from_basis for s in solutions] == [False] + [True] * (len(searched) - 1)

    def test_table_and_bound_solves_start_from_the_previous_budget(self, tmp_path,
                                                                 monkeypatch):
        solutions = _spy_solutions(monkeypatch)
        assert main(["compare", "--config", str(DESK), "--eps", "0.4,0.8",
                     "--method", "AIPO-R", "--method", "CoarseLP", "--method", "LB",
                     "--out-dir", str(tmp_path / "cmp")]) == 0
        # compare runs each method at every budget before the next method;
        # the bound makes no solve_lp call.
        assert [s.from_basis for s in solutions] == [False, True] * 2

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_started_solves_match_cold_solves(self, monkeypatch, p):
        warm = _desk_budgets(monkeypatch, p, cold=False)
        cold = _desk_budgets(monkeypatch, p, cold=True)
        assert warm.keys() == cold.keys()
        for (tag, eps), value in warm.items():
            if tag == "AIPO":
                assert value.tobytes() == cold[tag, eps].tobytes(), eps
            elif tag == "LB":
                assert value == pytest.approx(cold[tag, eps], rel=1e-12, abs=0), eps
            else:
                assert np.max(np.abs(value - cold[tag, eps])) <= 1e-12, (tag, eps)

    def test_rows_do_not_depend_on_the_budgets_before_them(self, tmp_path):
        rows = {}
        for name, eps in (("alone", "0.8"), ("all", None)):
            out = tmp_path / name
            flags = ["--eps", eps] if eps else []
            assert main(["compare", "--config", str(DESK), *flags, "--out-dir", str(out)]) == 0
            text = (out / "results.csv").read_text().splitlines()[1:]
            rows[name] = {r[0]: r for r in (line.split(",") for line in text) if r[1] == "0.8"}
        assert rows["alone"].keys() == rows["all"].keys() and len(rows["alone"]) == 9
        for method, (_, _, loss, viol, _) in rows["alone"].items():
            _, _, full_loss, full_viol, _ = rows["all"][method]
            assert float(loss) == pytest.approx(float(full_loss), rel=1e-12), method
            assert viol == full_viol, method


GRID8 = ROOT / "perfbench" / "inputs" / "grid8.yaml"
SEARCH_CASES = [("desk", p, eps) for p in (1.0, 2.0, math.inf)
                for eps in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)]
SEARCH_CASES += [("grid8", 2.0, 0.4), ("grid8", 2.0, 1.2)]


@functools.cache
def _search_against_grid(name, p, eps):
    """(best vector, curve, the least LP optimum over the whole grid, solved cold).

    The search runs as ``synthesize`` runs it, on a fresh instance; the grid
    is ``budget.feasible_allocations``' at the config's resolution.
    """
    run = load_config(DESK if name == "desk" else GRID8)
    priv = replace(run.privacy, p=p)
    _, best, curve, failed = make_aipo_mechanism(
        evaluation.synth_instance(run.instance, seed=6), eps, priv)
    assert failed == []
    inst = evaluation.synth_instance(run.instance, seed=6)
    coeffs = _surrogate(inst)
    grid = min(
        float(np.sum(coeffs.matrix * apo.solve_approx_apo(apo.build_approx_apo(
            inst.partition, inst.outputs, bv, coeffs))[0].probs))
        for bv in budget.feasible_allocations(eps, p, resolution=priv.sweep_resolution))
    return best, curve, grid


class TestArcSearch:
    """The search against every candidate of the grid, solved from scratch."""

    @pytest.mark.parametrize("name, p, eps", SEARCH_CASES)
    def test_least_optimum_at_most_the_grids(self, name, p, eps):
        _, curve, grid = _search_against_grid(name, p, eps)
        assert min(row[2] for row in curve) <= grid * (1 + budget.LOSS_TIE_TOL)

    @pytest.mark.parametrize("name, p, eps", SEARCH_CASES)
    def test_equal_split_in_curve(self, name, p, eps):
        _, curve, _ = _search_against_grid(name, p, eps)
        equal = budget.equal_split(eps, p, 2).eps
        assert any(abs(e1 - equal[0]) <= 1e-12 and abs(e2 - equal[1]) <= 1e-12
                   for e1, e2, _ in curve)

    @pytest.mark.parametrize("name, p, eps", SEARCH_CASES)
    def test_stored_budget_is_the_benchmark_checks_least_row(self, tmp_path, monkeypatch,
                                                             name, p, eps):
        # perfbench/checks.py::_check_sweep: least loss, then least eps_1.
        best, curve, _ = _search_against_grid(name, p, eps)
        path = tmp_path / "sweep.csv"
        formats.write_text(path, formats.csv_text(("eps1", "eps2", "loss"), curve))
        cfg = yaml.safe_load((DESK if name == "desk" else GRID8).read_text())
        cfg["metric"]["p"] = p
        assert _perfbench_checks(monkeypatch)._check_sweep(path, eps, cfg, best.eps) is None

    def test_flat_equal_split_walks_past_the_plateau(self):
        # Desk, p = inf, eps 1.0: the constant table at the equal split has
        # derivative 0, and the grid's least optimum lies at eps_1 = 5/12
        # beyond a plateau. Stopping where it is flat ends 6.25e-4 above it.
        best, curve, grid = _search_against_grid("desk", math.inf, 1.0)
        assert grid == pytest.approx(0.6147937515, abs=1e-10)
        assert best.eps[0] == pytest.approx(5 / 12, abs=1e-12)
        assert len(curve) == 5

    def test_rise_under_a_negative_derivative_is_bracketed_on_losses(self):
        # Desk, p = 2, eps 1.4: the optimum rises between eps_1 = 0.66 and
        # 0.675 although the derivative is negative at both. Stepping on the
        # derivative's sign from the equal split ends 1.1e-4 above the grid.
        best, curve, grid = _search_against_grid("desk", 2.0, 1.4)
        assert grid == pytest.approx(0.6016290762, abs=1e-10)
        assert min(row[2] for row in curve) <= grid
        assert 0.62 < best.eps[0] < 0.69


class TestLowerBound:
    def test_values_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "lb"
        assert main(["lower-bound", "--config", str(cfg), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "lower_bound.json").read_text())
        assert set(payload["values"]) == {"0.4", "0.8"}
        assert all(v >= 0 for v in payload["values"].values())

    def test_large_budgets_solve(self, tmp_path):
        # Ratio bounds exp(eps * d) up to ~1e12 at eps 10 on the desk domain
        # once made HiGHS fail, and math.exp overflowed at eps 300.
        desk = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "desk.yaml"
        out = tmp_path / "lb"
        assert main(["lower-bound", "--config", str(desk), "--out-dir", str(out),
                     "--eps", "10,20,300"]) == 0
        values = json.loads((out / "lower_bound.json").read_text())["values"]
        assert set(values) == {"10", "20", "300"}
        assert all(math.isfinite(v) and v >= 0 for v in values.values())

    def test_8x8_bound_solves_where_value_only_route_fails(self, tmp_path):
        # IPX without crossover ends in HiGHS's unknown model status on this
        # program (1,024 variables); the structured route solves it.
        grid8 = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "grid8.yaml"
        out = tmp_path / "lb"
        assert main(["lower-bound", "--config", str(grid8), "--out-dir", str(out),
                     "--eps", "10"]) == 0
        value = json.loads((out / "lower_bound.json").read_text())["values"]["10"]
        assert 0 < value < 0.01

    def test_bound_does_not_depend_on_the_budgets_before_it(self, tmp_path):
        # Each bound is solved from scratch. Started from the previous
        # budget's basis, these rows differed in the last bits.
        rows = {}
        for name, flags in (("alone", ["--method", "LB", "--eps", "0.8"]), ("all", [])):
            out = tmp_path / name
            assert main(["compare", "--config", str(DESK), *flags, "--out-dir", str(out)]) == 0
            rows[name], = [line for line in (out / "results.csv").read_text().splitlines()
                           if line.startswith("LB,0.8,")]
        assert rows["alone"] == rows["all"]
        out = tmp_path / "lb"
        assert main(["lower-bound", "--config", str(DESK), "--eps", "0.8", "--out-dir",
                     str(out)]) == 0
        value = json.loads((out / "lower_bound.json").read_text())["values"]["0.8"]
        assert value == float(rows["all"].split(",")[2])

    def _assert_tracer_counts_lp_statistics(self, tmp_path, monkeypatch, *args):
        """Trace ``args``, run them again in-process, and compare the LP counters.

        The tracer's LP counters must sum the statistics of the solutions
        that lpcore.linprog returns. Returns the trace summary and those
        solutions.
        """
        summary = _traced_summary(tmp_path, *args)
        solutions = []
        linprog = lpcore.linprog

        def recorded(*a, **kw):
            solutions.append(linprog(*a, **kw))
            return solutions[-1]

        monkeypatch.setattr(lpcore, "linprog", recorded)
        assert main([*args, "--threads", "1", "--out-dir", str(tmp_path / "direct")]) == 0
        assert summary["lpcore.highs.calls"] == len(solutions) > 0
        for counter, stat in [("lpcore.vars", "n_vars"), ("lpcore.rows", "n_rows"),
                              ("lpcore.nnz", "nnz"), ("lpcore.highs.nit", "nit")]:
            assert summary[counter] == sum(getattr(sol, stat) for sol in solutions), counter
        return summary, solutions

    def test_benchmark_tracer_counts_lp_statistics(self, tmp_path, monkeypatch):
        # perfbench/tracer.py rebinds LinearProgram.matrices, lpcore.linprog
        # and the apo stages by name; a rename there must fail here.
        cfg = write_config(tmp_path)
        summary, _ = self._assert_tracer_counts_lp_statistics(
            tmp_path, monkeypatch, "compare", "--config", str(cfg), "--method", "AIPO-R",
            "--method", "LB", "--eps", "0.4,0.8")
        # One HiGHS call per eps, AIPO-R's, reaches the rebound linprog; the
        # bound makes none.
        assert summary["apo.lower_bound.calls"] == 2
        assert summary["lpcore.highs.calls"] == 2

    def test_benchmark_tracer_counts_sweep_statistics(self, tmp_path, monkeypatch):
        # The sweep's candidates start from their neighbours' bases.
        cfg = write_config(tmp_path, {"privacy": {"budget_mode": "sweep", "sweep_resolution": 3}})
        summary, solutions = self._assert_tracer_counts_lp_statistics(
            tmp_path, monkeypatch, "synthesize", "--config", str(cfg), "--eps", "0.4,0.8")
        assert summary["apo.solve_approx_apo.calls"] == len(solutions)
        assert any(sol.from_basis for sol in solutions)
        assert not all(sol.from_basis for sol in solutions)

    def test_benchmark_tracer_counts_one_solve_through_a_retry(self, tmp_path):
        # The desk anchor program at the equal split takes IPX, which ends
        # in a solve error, and dual simplex solves it: one anchor solve and
        # one solve_lp call, two HiGHS calls.
        patch = """
from anchorpriv import lpcore
highs = lpcore.highs
class Forced(highs._Highs):
    def setOptionValue(self, key, value):
        if key == "solver":
            self.ipx = value == "ipm"
        return super().setOptionValue(key, value)
    def run(self):
        return highs.HighsStatus.kOk if self.ipx else super().run()
    def getModelStatus(self):
        return highs.HighsModelStatus.kSolveError if self.ipx else super().getModelStatus()
highs._Highs = Forced
lpcore.IPM_MIN_VARS = 1
"""
        summary = _traced_summary(tmp_path, "compare", "--config", str(DESK), "--method",
                                  "AIPO-E", "--eps", "0.8", patch=patch)
        assert summary["apo.solve_approx_apo.calls"] == 1
        assert summary["lpcore.solve_lp.calls"] == 1
        assert summary["lpcore.highs.calls"] == 2

    def test_benchmark_tracer_sees_no_highs_call_on_the_8x8_bound(self, tmp_path):
        grid8 = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "grid8.yaml"
        summary = _traced_summary(tmp_path, "lower-bound", "--config", str(grid8),
                                  "--eps", "0.8")
        assert summary["apo.lower_bound.calls"] == 1
        assert summary.get("lpcore.solve_lp.calls", 0) == 0
        assert summary.get("lpcore.highs.calls", 0) == 0


def _run_cli(tmp_path, *args, timeout=120):
    """Run the command line in a fresh interpreter, killed after ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "anchorpriv.cli", *args, "--threads", "1",
                           "--out-dir", str(tmp_path)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)


class TestFormerSolverErrors:
    """Desk commands that exited 3 while HiGHS was handed the primal programs.

    Each runs in its own interpreter under a timeout, so a HiGHS solve that
    hangs fails its test, not the whole run.
    """

    @pytest.mark.parametrize("method, eps", [
        ("AIPO-R", "12.2"),    # "inequality residual 1.645e-07 above tolerance"
        ("CoarseLP", "13"),    # "returned a table that is not optimal"
    ])
    def test_all_pairs_table_solves(self, tmp_path, method, eps):
        run = _run_cli(tmp_path, "compare", "--config", str(DESK), "--method", method,
                       "--eps", eps)
        assert run.returncode == 0, run.stderr
        (row,) = (tmp_path / "results.csv").read_text().splitlines()[1:]
        name, budget, loss, violations, _ = row.split(",")
        assert (name, budget) == (method, eps) and math.isfinite(float(loss))

    def test_sweep_at_a_tiny_budget_solves_every_candidate(self, tmp_path):
        # Every anchor program was "(HiGHS Status 8: Infeasible)" with presolve on.
        run = _run_cli(tmp_path, "synthesize", "--config", str(DESK), "--eps", "1e-9")
        assert run.returncode == 0, run.stderr
        sweep = formats.read_float_csv(tmp_path / "sweep_eps1e-09.csv")
        assert sweep.ndim == 2 and sweep.shape[1] == 3 and np.all(np.isfinite(sweep))
        manifest = json.loads((tmp_path / "manifest_synthesize.json").read_text())
        assert manifest["failed_candidates"] == {"1e-09": []}


def test_synthesize_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique(axis=0) imports numpy.ma, 13-28 ms of every command's start-up.
    code = ("import sys\nfrom anchorpriv import cli\n"
            f"cli.main(['synthesize', '--config', {str(DESK)!r}, '--eps', '0.8', '--out-dir', "
            f"{str(tmp_path)!r}])\nprint('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def _highs_loads(tmp_path, *args):
    """Run a command in a fresh interpreter and report on the HiGHS binding.

    Returns four words: the exit code, how often ``lpcore`` loaded the
    binding, whether it is in ``sys.modules``, and whether the module
    ``lpcore`` solves with is that entry.
    """
    code = textwrap.dedent(f"""
        import sys
        from anchorpriv import cli, lpcore
        loads = []
        load = lpcore._load_highs
        def counted(directory):
            loads.append(directory)
            return load(directory)
        lpcore._load_highs = counted
        code = cli.main({[*args, "--out-dir", str(tmp_path / "out")]!r})
        entry = sys.modules.get(lpcore.HIGHS_MODULE)
        print(code, len(loads), entry is not None, entry is not None and lpcore.highs is entry)
    """)
    return _last_line_of(code).split()


def _last_line_of(code):
    """Run ``code`` in a fresh interpreter that imports the package from src/; its last line."""
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


class TestHighsLoad:
    """The HiGHS binding (about 11 ms and 3.8 MB) is loaded only by a command that solves a
    table program, on its first solve."""

    def test_lower_bound_leaves_highs_unloaded(self, tmp_path):
        assert _highs_loads(tmp_path, "lower-bound", "--config", str(DESK)) == [
            "0", "0", "False", "False"]

    def test_lower_bound_leaves_scipy_unloaded(self, tmp_path):
        # The bound is solved with numpy alone; importing scipy.linalg alone
        # would add about 0.25 s and 28 MB to the command.
        args = ["lower-bound", "--config", str(DESK), "--out-dir", str(tmp_path / "out")]
        assert _last_line_of(textwrap.dedent(f"""
            import sys
            from anchorpriv import cli
            code = cli.main({args!r})
            print(code, sorted(name for name in sys.modules if name.startswith("scipy")))
        """)) == "0 []"

    def test_audit_leaves_highs_unloaded(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == 0
        assert _highs_loads(tmp_path, "audit", "--mechanism",
                            str(tmp_path / "m" / "mechanism_eps0.4.json"), "--eps", "0.4") == [
            "0", "0", "False", "False"]

    def test_synthesize_loads_highs_once_and_solves_with_it(self, tmp_path):
        assert _highs_loads(tmp_path, "synthesize", "--config", str(DESK), "--eps",
                            "0.8") == ["0", "1", "True", "True"]


class TestErrors:
    def test_all_pairs_ratio_bound_above_highs_limit_is_solver_error(self, tmp_path, capsys):
        args = ["compare", "--config", str(DESK), "--method", "AIPO-R"]
        assert main([*args, "--eps", "12", "--out-dir", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main([*args, "--eps", "12.5", "--out-dir", str(tmp_path / "b")]) == 3
        assert capsys.readouterr().err == (
            "solver error: all-pairs program at eps 12.5 needs ratio bounds up to "
            "exp(35.3553); HiGHS accepts at most exp(34.5388) = 1e15\n")
        assert not (tmp_path / "b" / "results.csv").exists()

    @pytest.mark.parametrize("eps, largest", [("300", "53.033"), ("5000", "883.883")])
    def test_anchor_ratio_bound_above_highs_limit_is_solver_error(self, tmp_path, capsys,
                                                                 eps, largest):
        # HiGHS once failed at eps 300 with a bare "Model error", and
        # math.exp overflowed with a traceback at eps 5000.
        cfg = desk_config(tmp_path, {"privacy": {"budget_mode": "equal"}})
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--eps", eps,
                     "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"solver error: anchor program at eps {eps} needs ratio bounds up to "
            f"exp({largest}); HiGHS accepts at most exp(34.5388) = 1e15\n")
        assert not (out / f"mechanism_eps{eps}.json").exists()

    def test_solve_highs_never_ran_logs_zero_iterations(self, tmp_path, caplog):
        # At eps 170 HiGHS stops before it solves (model status 0, "Not Set"),
        # and it reports -1 for each iteration count, which once made nit -3.
        cfg = desk_config(tmp_path, {"privacy": {"budget_mode": "equal"}})
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            assert main(["synthesize", "--config", str(cfg), "--eps", "170",
                         "--out-dir", str(tmp_path / "out")]) == 3
        never_ran = [record.args[1] for record in caplog.records
                     if record.levelno == logging.DEBUG and "Not Set" in record.args[0]]
        assert never_ran
        for stats in never_ran:
            assert [stats[key] for key in ("nit", "simplex_nit", "ipm_nit", "crossover_nit")] == [
                0, 0, 0, 0]

    def test_large_budget_sweep_checks_its_arc_relative_to_the_bound(self, tmp_path, capsys):
        # Arc samples at eps 1000 once missed their own check by rounding,
        # and synthesize exited 1 with an AssertionError.
        args = ["synthesize", "--eps", "1000"]
        assert main([*args, "--config", str(DESK), "--out-dir", str(tmp_path / "a")]) == 3
        err = capsys.readouterr().err
        assert err.endswith("solver error: every candidate allocation failed evaluation\n")
        assert "Traceback" not in err
        # Budgets are per domain unit: on a 0.002-unit domain eps 1000 solves.
        cfg = desk_config(tmp_path, {"domain": {"upper": [0.002, 0.002]}})
        assert main([*args, "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "mechanism_eps1000.json").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["synthesize", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    def test_invalid_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("privacy: [unclosed")
        assert main(["synthesize", "--config", str(path)]) == 2

    def test_bad_budget_mode_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"privacy": {"budget_mode": "magic"}})
        assert main(["synthesize", "--config", str(cfg)]) == 2

    def test_nonpositive_eps_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"privacy": {"eps": [0.0]}})
        assert main(["synthesize", "--config", str(cfg)]) == 2

    def test_threads_flag_below_one_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for value in ("0", "-3"):
            code = main(["lower-bound", "--config", str(cfg),
                         "--out-dir", str(tmp_path / "lb"), "--threads", value])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"config error: --threads must be >= 1, got {value}\n"
            assert not (tmp_path / "lb").exists()

    def test_threads_env_is_not_read(self, tmp_path, monkeypatch):
        # ANCHORPRIV_THREADS once set the audit's worker count, and a value
        # that was not a positive integer exited 2.
        cfg = write_config(tmp_path)
        for env in ("abc", "0"):
            monkeypatch.setenv("ANCHORPRIV_THREADS", env)
            assert main(["lower-bound", "--config", str(cfg),
                         "--out-dir", str(tmp_path / env)]) == 0

    def test_bad_eps_flag_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for eps in ("0.4,abc", "", ","):
            code = main([
                "lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "lb"),
                "--eps", eps,
            ])
            assert code == 2
            assert "config error: --eps" in capsys.readouterr().err
            assert not (tmp_path / "lb").exists()


    def test_duplicate_budget_is_config_error(self, tmp_path, capsys):
        # 0.4000001 prints as 0.4 too, so its files would overwrite 0.4's.
        cfg = write_config(tmp_path)
        for command in ("synthesize", "compare", "lower-bound"):
            for eps in ("0.4,0.4", "0.4,0.8,0.4000001"):
                out = tmp_path / command
                code = main([command, "--config", str(cfg), "--out-dir", str(out),
                             "--eps", eps])
                assert code == 2
                assert "privacy.eps lists budget 0.4 more than once" in capsys.readouterr().err
                assert not out.exists()


class TestStrictConfig:
    """Every key is checked against the settings classes; no silent default."""

    def _run(self, tmp_path, capsys, override, command="lower-bound"):
        cfg = write_config(tmp_path, override)
        code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def test_misspelled_key_rejected(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"privacy": {"budget_mod": "equal"}})
        assert code == 2
        assert "privacy.budget_mod: unknown key" in err

    def test_string_for_bool_rejected(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"instance": {"prior_on_anchors": "no"}})
        assert code == 2
        assert "instance.prior_on_anchors: expected bool" in err

    def test_fraction_for_int_rejected(self, tmp_path, capsys):
        code, err = self._run(
            tmp_path, capsys,
            {"privacy": {"budget_mode": "sweep", "sweep_resolution": 2.7}}, "synthesize",
        )
        assert code == 2
        assert "privacy.sweep_resolution: expected int" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"privcy": {"eps": [0.4]}})
        assert code == 2
        assert "unknown config section 'privcy'" in err

    def test_defaults_come_from_the_settings_classes(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        run = load_config(path)
        assert run.instance == InstanceSpec()
        assert run.privacy == PrivacySpec()
        assert run.compare == CompareSpec()
        assert run.seed == 0

    def test_infinite_p_accepted_bare_and_quoted(self, tmp_path):
        for text in ("metric: {p: inf}\n", "metric: {p: 'inf'}\n"):
            path = tmp_path / "inf.yaml"
            path.write_text(text)
            assert load_config(path).privacy.p == math.inf

    def test_benchmark_inputs_load_strictly(self, monkeypatch):
        # The example config and the frozen benchmark inputs must stay
        # readable; the frozen ones must give the instance the benchmark's
        # own checks build from them.
        checks = _perfbench_checks(monkeypatch)
        load_config(ROOT / "configs" / "example.yaml")
        for name in ("desk.yaml", "grid8.yaml"):
            path = ROOT / "perfbench" / "inputs" / name
            run = load_config(path)
            assert run.instance == checks.instance_spec(yaml.safe_load(path.read_text()))
            assert run.seed == 6

    def test_benchmark_output_checks_pass(self, tmp_path, monkeypatch):
        # The benchmark's own checks, on its desk input at two budgets: a
        # change that breaks what they import or assert fails here first.
        checks = _perfbench_checks(monkeypatch)
        path = ROOT / "perfbench" / "inputs" / "desk.yaml"
        cfg, eps = yaml.safe_load(path.read_text()), [0.4, 1.2]
        out = {}
        for command in ("synthesize", "lower-bound", "compare"):
            out[command] = tmp_path / command
            assert main([command, "--config", str(path), "--eps", "0.4,1.2", "--seed", "6",
                         "--out-dir", str(out[command])]) == 0
        outcomes = [
            checks.check_synth(out["synthesize"], cfg, eps, 6, ref_dir=out["lower-bound"]),
            checks.check_lower_bound(out["lower-bound"], cfg, eps, 6, ref_dir=out["synthesize"]),
            checks.check_compare(out["compare"], cfg, eps, 6),
        ]
        assert [outcome.failed for outcome in outcomes] == [{}, {}, {}]


class TestInputGuards:
    def _mechanism(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(tmp_path / "m")]) == 0
        return tmp_path / "m" / "mechanism_eps0.4.json"

    def _audit(self, tmp_path, mech, *flags):
        return main([
            "audit", "--mechanism", str(mech), "--out-dir", str(tmp_path / "a"), *flags,
        ])

    def test_audit_non_whole_cell_counts_is_config_error(self, tmp_path, capsys):
        # A count of 2.9 once loaded as 2 and the audit exited 0.
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        assert payload["partition"]["counts"] == [2, 2]
        payload["partition"]["counts"] = [2.9, 2]
        mech.write_text(json.dumps(payload))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert capsys.readouterr().err == (
            "config error: cell counts must be whole numbers, got 2.9 at index [0]\n")
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("path, index, ndim", [
        ("partition.lower", (0,), 1), ("partition.upper", (1,), 1),
        ("partition.counts", (0,), 1), ("outputs.points", (2, 1), 2),
        ("table.probs", (3, 0), 2), ("budget_eps", (1,), 1)])
    def test_quoted_number_is_config_error(self, tmp_path, capsys, path, index, ndim):
        # np.asarray(..., dtype=float) once read "0.5" as 0.5.
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        *parents, key = path.split(".")
        block = payload
        for name in parents:
            block = block[name]
        entry = block[key]
        for i in index[:-1]:
            entry = entry[i]
        entry[index[-1]] = str(entry[index[-1]])
        message = f"mechanism field {path!r} must be a {ndim}-D array of numbers"
        with pytest.raises(ValueError, match=re.escape(message)):
            Mechanism.from_json_dict(payload)
        mech.write_text(json.dumps(payload))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "a").exists()

    def test_audit_nonpositive_eps_is_config_error(self, tmp_path, capsys):
        code = self._audit(tmp_path, self._mechanism(tmp_path), "--eps", "-1")
        assert code == 2
        assert "eps must be positive" in capsys.readouterr().err

    def test_audit_non_finite_eps_is_config_error(self, tmp_path, capsys):
        code = self._audit(tmp_path, self._mechanism(tmp_path), "--eps", "inf")
        assert code == 2
        assert "config error: audit budget eps must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("flag, value, least", [
        ("--samples", "1", 2), ("--bins", "0", 1), ("--seed", "-1", 0)])
    def test_audit_out_of_range_flag_is_named(self, tmp_path, capsys, flag, value, least):
        # numpy's own messages once reached the user, naming no flag.
        mech = self._mechanism(tmp_path)
        assert self._audit(tmp_path, mech, "--eps", "0.4", flag, value) == 2
        assert capsys.readouterr().err == (
            f"config error: {flag} must be >= {least}, got {value}\n")
        assert not (tmp_path / "a").exists()

    def test_explicit_budget_over_the_bound_fails_before_any_solve(self, tmp_path, capsys,
                                                                  monkeypatch):
        # synthesize once wrote instance/ and the eps 0.8 mechanism before
        # failing at eps 0.4, with a message that named no key.
        solves = []
        monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: solves.append(lp))
        cfg = write_config(tmp_path, {"privacy": {"budget_mode": "explicit",
                                                  "explicit_budget": [0.2, 0.2]}})
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--eps", "0.8,0.4",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: privacy.explicit_budget [0.2, 0.2] violates composition at "
            "budget 0.4: aggregate 0.08 > bound 0.04\n")
        assert solves == [] and not out.exists()

    def test_explicit_budget_is_checked_at_the_eps_flag_budgets(self, tmp_path, capsys):
        # The vector was once checked at the config's budgets too, which
        # --eps replaces: at 0.2 its aggregate 0.5 exceeds the bound 0.01.
        cfg = desk_config(tmp_path, {"privacy": {"budget_mode": "explicit",
                                                 "explicit_budget": [0.5, 0.5]}})
        assert main(["synthesize", "--config", str(cfg), "--eps", "1.6",
                     "--out-dir", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "mechanism_eps1.6.json").exists()
        capsys.readouterr()
        assert main(["synthesize", "--config", str(cfg), "--eps", "0.2",
                     "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == (
            "config error: privacy.explicit_budget [0.5, 0.5] violates composition at "
            "budget 0.2: aggregate 0.5 > bound 0.01\n")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("convention", ["full-dual", "full-primal"])
    def test_explicit_budget_over_its_own_arc_fails_under_every_convention(
            self, tmp_path, capsys, monkeypatch, convention):
        # Only half-dual vectors were once checked: [5, 5] synthesized under
        # full-dual, and its audit found every pair in violation.
        solves = []
        monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: solves.append(lp))
        cfg = desk_config(tmp_path, {"privacy": {
            "eps": [0.8], "budget_mode": "explicit", "budget_convention": convention,
            "explicit_budget": [5.0, 5.0]}})
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--eps", "0.8",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: privacy.explicit_budget [5.0, 5.0] violates composition at "
            "budget 0.8: aggregate 50 > bound 0.64\n")
        assert solves == [] and not out.exists()

    @pytest.mark.parametrize("mode", ["sweep", "equal"])
    def test_explicit_budget_outside_explicit_mode_fails_before_any_solve(
            self, tmp_path, capsys, monkeypatch, mode):
        # The vector was once ignored without a word: under sweep, [5, 5]
        # exited 0 with the swept split stored, and its composition was
        # never checked.
        solves = []
        monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: solves.append(lp))
        cfg = desk_config(tmp_path, {"privacy": {
            "eps": [0.8], "budget_mode": mode, "explicit_budget": [5.0, 5.0]}})
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: privacy.explicit_budget is only read when privacy.budget_mode "
            f"is explicit, got budget_mode {mode!r}\n")
        assert solves == [] and not out.exists()

    def test_explicit_budget_is_stored(self, tmp_path, monkeypatch):
        solutions = _spy_solutions(monkeypatch)
        cfg = write_config(tmp_path, {"privacy": {"budget_mode": "explicit",
                                                  "explicit_budget": [0.1, 0.15]}})
        out = tmp_path / "out"
        assert main(["synthesize", "--config", str(cfg), "--out-dir", str(out)]) == 0
        # An explicit vector starts from no other program's basis.
        assert [s.from_basis for s in solutions] == [False, False]
        for eps in ("0.4", "0.8"):
            mech = json.loads((out / f"mechanism_eps{eps}.json").read_text())
            assert mech["budget_eps"] == [0.1, 0.15]

    @pytest.mark.parametrize("command", ["synthesize", "compare", "lower-bound"])
    @pytest.mark.parametrize("source", ["privacy.eps", "--eps"])
    def test_non_finite_budget_fails_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                      command, source):
        # compare with EM once wrote a NaN loss and lower-bound a 0 bound at eps inf.
        solves = []
        monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: solves.append(lp))
        if source == "--eps":
            cfg, flags = write_config(tmp_path), ["--eps", "0.4,inf"]
        else:
            cfg, flags = write_config(tmp_path, {"privacy": {"eps": [0.4, math.inf]}}), []
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), *flags, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: privacy.eps (or --eps) must list finite positive budgets, "
            "got [0.4, inf]\n")
        assert solves == [] and not out.exists()

    def test_compare_single_audit_sample_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"compare": {"audit_samples": 1, "methods": ["EM"]}})
        code = main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "c")])
        assert code == 2
        assert "at least 2 sample points" in capsys.readouterr().err

    def test_compare_single_audit_sample_fails_before_any_solve(self, tmp_path, capsys,
                                                                monkeypatch):
        from anchorpriv import apo

        solves = []
        monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: solves.append(lp))
        cfg = write_config(tmp_path, {"compare": {"audit_samples": 1, "methods": ["AIPO"]}})
        code = main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "c")])
        assert code == 2
        assert "compare.audit_samples must be >= 2" in capsys.readouterr().err
        assert solves == []

    def test_tem_without_candidate_in_range_names_radius_and_point(self, tmp_path, capsys):
        # At eps 20 the default radius, 3 / eps, leaves the desk's first
        # evaluated point without a candidate.
        code = main(["compare", "--config", str(DESK), "--eps", "20", "--method", "TEM",
                     "--out-dir", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: no candidate within the truncation radius 0.15 of point "
            "(0.0833333, 0.0833333)\n")

    def test_compare_bad_tem_radius_fails_before_any_solve(self, tmp_path, capsys,
                                                           monkeypatch):
        solves = []
        monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: solves.append(lp))
        cfg = write_config(tmp_path, {"compare": {"tem_radius": -1, "methods": ["AIPO", "TEM"]}})
        code = main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "c")])
        assert code == 2
        assert "compare.tem_radius must be > 0" in capsys.readouterr().err
        assert solves == []

    def test_non_finite_probability_is_config_error(self, tmp_path, capsys):
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        payload["table"]["probs"][0][0] = math.nan
        mech.write_text(json.dumps(payload))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert capsys.readouterr().err == (
            "config error: mechanism field 'table.probs' must hold finite numbers\n")

    def test_unstated_metric_order_is_config_error(self, tmp_path, capsys):
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        mech.write_text(json.dumps(dict(payload, metric_p=None, budget_eps=None)))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert "metric_p is None" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["metric_p", "total_eps"])
    def test_null_field_under_a_budget_is_named(self, tmp_path, capsys, key):
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        assert payload["budget_eps"] is not None
        mech.write_text(json.dumps(dict(payload, **{key: None})))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        err = capsys.readouterr().err
        assert f"mechanism field '{key}' must be a number when 'budget_eps' is set" in err

    def test_mechanism_version_is_read(self, tmp_path, capsys):
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        mech.write_text(json.dumps(dict(payload, version=2)))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert "mechanism file version 2 is not supported" in capsys.readouterr().err

    def test_foreign_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"x": 1}')
        assert self._audit(tmp_path, path, "--eps", "0.4") == 2
        assert "not an anchorpriv mechanism" in capsys.readouterr().err

    def test_missing_mechanism_field_is_named(self, tmp_path, capsys):
        mech = self._mechanism(tmp_path)
        payload = json.loads(mech.read_text())
        del payload["partition"]["counts"]
        mech.write_text(json.dumps(payload))
        assert self._audit(tmp_path, mech, "--eps", "0.4") == 2
        assert "'partition.counts'" in capsys.readouterr().err

    def test_out_of_domain_is_an_internal_fault(self, tmp_path, monkeypatch):
        # Commands only evaluate points inside the domain, so an
        # OutOfDomainError is a bug to surface, not a config error.
        from anchorpriv import evaluation
        from anchorpriv.errors import OutOfDomainError

        def fault(*args, **kwargs):
            raise OutOfDomainError("point outside the domain")

        monkeypatch.setattr(evaluation, "synth_instance", fault)
        cfg = write_config(tmp_path)
        with pytest.raises(OutOfDomainError):
            main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "lb")])


class TestInstanceRanges:
    """Each config field is checked, on reading, against the least value its stage accepts."""

    # config section, key, a rejected value, an accepted value at the range's edge.
    CASES = [
        ("domain", "lower", [0.0, 2.0], [0.0, 1.999]),
        ("domain", "upper", [2.0, 0.0], [2.0, 0.001]),
        ("domain", "grid", [2, 0], [1, 1]),
        ("instance", "outputs", [0, 2], [1, 1]),
        ("instance", "graph_size", 0, 1),
        ("instance", "samples_per_cell", 0, 1),
        ("instance", "n_tasks", 0, 1),
        ("instance", "n_hotspots", -1, 0),
        ("instance", "weight_jitter", -1.5, -1.0),
        ("privacy", "sweep_resolution", 1, 2),
        ("privacy", "explicit_budget", [0.1], [0.1, 0.1]),
        ("privacy", "explicit_budget", [0.1, 0.1, 0.1], [0.1, 0.1]),
        ("privacy", "explicit_budget", [-0.1, 0.1], [0.0, 0.0]),
        ("privacy", "explicit_budget", [math.inf, 0.1], [0.0, 0.0]),
        ("compare", "coarse_grid", [0, 4], [1, 1]),
        ("compare", "coarse_grid", [4], [1, 1]),
        ("compare", "tem_radius", -1.0, 1e-9),
    ]

    @pytest.mark.parametrize("section, key, bad, edge", CASES,
                             ids=[f"{s}.{k}" for s, k, _, _ in CASES])
    def test_field_range(self, tmp_path, capsys, section, key, bad, edge):
        # Only budget_mode explicit reads (and accepts) explicit_budget.
        mode = {"budget_mode": "explicit"} if key == "explicit_budget" else {}
        cfg = write_config(tmp_path, {section: {key: bad, **mode}})
        code = main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{section}.{key}" in err
        cfg = write_config(tmp_path, {section: {key: edge, **mode}})
        assert main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"instance": {"seed": -1}})
        assert main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert "instance.seed (or --seed) must be >= 0, got -1" in capsys.readouterr().err
        cfg = write_config(tmp_path)
        code = main(["lower-bound", "--config", str(cfg), "--seed", "-2",
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "got -2" in capsys.readouterr().err

    def test_domain_must_be_planar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"domain": {"lower": [0.0], "upper": [2.0], "grid": [2]}})
        code = main(["lower-bound", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "domain.lower must have 2 entries" in capsys.readouterr().err

    def test_non_finite_bounds_and_jitter_rejected(self):
        with pytest.raises(ConfigError, match="domain.upper must be finite"):
            InstanceSpec(upper=(math.inf, 2.0))
        with pytest.raises(ConfigError, match="instance.weight_jitter"):
            InstanceSpec(weight_jitter=math.nan)


# One value of each YAML/JSON type: whatever a key expects, some are wrong.
WRONG_VALUES = ("x", True, 2.7, [1], {"a": 1}, None)


def _key_paths(tree, prefix=()):
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def mutated(draw, tree):
    """``tree`` with one key dropped, misspelled or set to a wrong-typed value."""
    tree = json.loads(json.dumps(tree))
    *parents, key = draw(st.sampled_from(sorted(_key_paths(tree))))
    node = tree
    for name in parents:
        node = node[name]
    kind = draw(st.sampled_from(("drop", "misspell", "retype")))
    if kind == "drop":
        del node[key]
    elif kind == "misspell":
        node[key[:-1] if len(key) > 1 else key + "_"] = node.pop(key)
    else:
        node[key] = draw(st.sampled_from(WRONG_VALUES))
    return tree


@functools.cache
def _mechanism_dict():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp))
        assert main(["synthesize", "--config", str(cfg), "--out-dir", tmp, "--eps", "0.8"]) == 0
        return json.loads((Path(tmp) / "mechanism_eps0.8.json").read_text())


class TestFuzz:
    """Malformed inputs end in a documented exit code, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=mutated(BASE_CONFIG),
           command=st.sampled_from(["synthesize", "lower-bound", "compare"]))
    def test_mutated_config(self, cfg, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.yaml"
            path.write_text(yaml.safe_dump(cfg))
            code = main([command, "--config", str(path), "--out-dir", str(Path(tmp) / "o")])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_mechanism(self, data):
        payload = data.draw(mutated(_mechanism_dict()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mechanism.json"
            path.write_text(json.dumps(payload))
            code = main([
                "audit", "--mechanism", str(path), "--eps", "0.8", "--samples", "20",
                "--out-dir", str(Path(tmp) / "o"),
            ])
        assert code in (0, 2, 3, 4)
