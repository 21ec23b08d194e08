"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Criteria 1, 2, 8 and 9 run on a fixed synthetic instance (default
InstanceSpec, seed 6) over the budget grid 0.2..1.6; the remaining
criteria are instance-independent bound, oracle, and determinism checks.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

import anchorpriv as ap
from anchorpriv.apo import (
    SurrogateCoefficients,
    build_approx_apo,
    build_coarse_lp,
    solve_approx_apo,
    surrogate_coefficients,
)
from anchorpriv.budget import BudgetVector, check_budget, equal_split
from anchorpriv.cli import CompareSpec, PrivacySpec, main, make_aipo_mechanism, make_method
from anchorpriv.evaluation import InstanceSpec, LossModel, PriorModel, synth_instance
from anchorpriv.geometry import Partition, dual_exponent, lp_distance
from anchorpriv.interpolation import Mechanism
from anchorpriv.lpcore import solve_lp

EPS_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
INSTANCE_SEED = 6
AUDIT_SEED = 7
METRIC_P = 2.0


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {desc}")


@pytest.fixture(scope="module")
def bench():
    """Locked instance plus the synthesized mechanisms for the budget grid."""
    inst = synth_instance(InstanceSpec(), seed=INSTANCE_SEED)
    aipo = {}
    t0 = time.monotonic()
    for eps in EPS_GRID:
        aipo[eps] = make_aipo_mechanism(
            inst, eps, PrivacySpec(p=METRIC_P, budget_mode="sweep", sweep_resolution=5)
        )[0]
    synth_seconds = time.monotonic() - t0
    return {"inst": inst, "aipo": aipo, "synth_seconds": synth_seconds}


def test_criterion_1_zero_violation_guarantee(bench, tmp_path):
    with criterion(1, "synthesized mechanism audits at 0.00% violations on the whole grid"):
        t0 = time.monotonic()
        for eps in EPS_GRID:
            mech_path = tmp_path / f"mech{eps:g}.json"
            bench["aipo"][eps].save(mech_path)
            out = tmp_path / f"audit{eps:g}"
            code = main([
                "audit", "--mechanism", str(mech_path), "--eps", str(eps),
                "--samples", "300", "--seed", str(AUDIT_SEED),
                "--out-dir", str(out),
            ])
            assert code == 0
            report = json.loads((out / "audit_report.json").read_text())
            assert report["sampled_points"] == 300
            assert report["violating_pairs"] == 0
            assert report["violation_ratio_percent"] == 0.0
        elapsed = (time.monotonic() - t0) + bench["synth_seconds"]
        assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_2_discretization_leakage(bench):
    with criterion(2, "coarse 2x2 representative table leaks at small budgets"):
        inst = bench["inst"]
        for eps in (0.2, 0.4, 0.6):
            coarse = make_method(
                "CoarseLP", inst, eps, PrivacySpec(p=METRIC_P), CompareSpec(coarse_grid=(2, 2))
            )
            report = ap.violation_ratio(
                coarse, eps, METRIC_P, sample_count=300, seed=AUDIT_SEED
            )
            assert report.violating_pairs > 0
            assert report.violation_ratio > 0.0


def _random_feasible_budget(rng, p, eps_total, n_dims=2):
    half = eps_total / 2.0
    if p == 1:
        vec = rng.uniform(0.2, 1.0, n_dims) * half
    else:
        q = dual_exponent(p)
        shares = rng.dirichlet(np.ones(n_dims))
        radius_frac = rng.uniform(0.3, 0.95)
        vec = (half**q * shares * radius_frac) ** (1.0 / q)
    bv = BudgetVector(eps=vec, total_eps=eps_total, p=p)
    assert check_budget(bv).ok
    return bv


def test_criterion_3_composition_bounds():
    with criterion(3, "interpolant obeys the composed Lipschitz bound (2x after normalizing)"):
        rng = np.random.default_rng(31)
        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        pair_total = 0
        for p in (1, 1.5, 2, 3):
            for _ in range(2):  # two random budget draws per metric order
                outputs = ap.OutputDomain(points=rng.random((4, 2)) * 2.0)
                coeffs = SurrogateCoefficients(
                    matrix=rng.random((part.n_anchors, outputs.size)) * 3.0
                )
                bv = _random_feasible_budget(rng, p, eps_total=float(rng.uniform(0.6, 1.6)))
                table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
                mech = Mechanism(part, table, outputs, budget=bv)
                if p == 1:
                    eps_prime = float(bv.eps.max())
                else:
                    q = dual_exponent(p)
                    eps_prime = float(np.sum(bv.eps**q) ** (1.0 / q))
                pts = rng.random((60, 2)) * 2.0
                raw = mech.log_scores(pts)
                norm = mech.log_probs(pts)
                for i in range(len(pts)):
                    for j in range(i + 1, len(pts)):
                        d = lp_distance(pts[i], pts[j], p)
                        raw_slack = float(np.abs(raw[i] - raw[j]).max()) - eps_prime * d
                        norm_slack = float(np.abs(norm[i] - norm[j]).max()) - 2 * eps_prime * d
                        assert raw_slack <= 1e-9
                        assert norm_slack <= 1e-9
                        pair_total += 1
        assert pair_total >= 10_000


def test_criterion_4_one_dimensional_validity():
    with criterion(4, "1-D interpolant is per-axis Lipschitz within and across intervals"):
        rng = np.random.default_rng(41)
        part = Partition((0.0,), (3.0,), (3,))
        outputs = ap.OutputDomain(points=np.array([[0.0], [1.2], [2.9]]))
        coeffs = SurrogateCoefficients(
            matrix=rng.random((part.n_anchors, outputs.size)) * 2.0
        )
        eps_axis = 0.9
        bv = BudgetVector(eps=np.array([eps_axis]), total_eps=2.6, p=2.0)
        table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
        mech = Mechanism(part, table, outputs, budget=bv)
        grids = [
            base + np.linspace(0.0, 1.0, 32) * part.deltas[0]
            for base in part.cell_lower[:, 0]
        ]
        logs = [mech.log_scores(g[:, None]) for g in grids]
        for m in range(part.n_cells):
            for m2 in range(m, part.n_cells):
                # 32 x 32 = 1024 point pairs per interval pair
                for i, a in enumerate(grids[m]):
                    gaps = np.abs(logs[m2] - logs[m][i]).max(axis=1)
                    assert np.all(gaps <= eps_axis * np.abs(grids[m2] - a) + 1e-9)


def test_criterion_5_lower_bound_dominance():
    with criterion(5, "every mechanism's expected loss clears the aggregated bound"):
        small = InstanceSpec(
            grid=(2, 2), outputs=(2, 2), graph_size=5,
            samples_per_cell=2, n_tasks=5,
        )
        rng = np.random.default_rng(51)
        for trial in range(20):
            inst = synth_instance(small, seed=100 + trial)
            eps = float(rng.choice([0.3, 0.7, 1.1, 1.5]))
            lb, _ = ap.lower_bound(
                inst.partition, inst.outputs, eps, METRIC_P, inst.loss, inst.prior
            )
            for tag in ("AIPO-E", "AIPO-R", "EM", "Laplace", "CoarseLP"):
                mech = make_method(
                    tag, inst, eps, PrivacySpec(p=METRIC_P), CompareSpec(coarse_grid=(2, 2))
                )
                loss_val = ap.expected_loss(mech, inst.prior, inst.loss)
                assert loss_val >= lb - 1e-8, f"{tag} fell below the bound"


def test_criterion_6_surrogate_exactness_on_anchors():
    with criterion(6, "anchor-supported priors make the surrogate objective exact"):
        inst = synth_instance(InstanceSpec(prior_on_anchors=True), seed=INSTANCE_SEED)
        part, outputs = inst.partition, inst.outputs
        coeffs = surrogate_coefficients(part, inst.prior, inst.loss, outputs)
        bv = equal_split(0.8, METRIC_P, 2)
        lp = build_approx_apo(part, outputs, bv, coeffs)
        sol = solve_lp(lp)
        table = sol.values.reshape(lp.var_shape)
        loss_mat = inst.loss.loss_matrix(inst.prior.points, outputs)
        exact = sum(
            inst.prior.masses[i] * float(table[i] @ loss_mat[i])
            for i in range(inst.prior.size)
        )
        assert sol.objective_value == pytest.approx(exact, abs=1e-12)


def test_criterion_7_two_point_oracle():
    with criterion(7, "two-representative program matches the 1/3 hand solution"):
        prior = PriorModel(np.array([[0.0], [1.0]]), [0.5, 0.5])
        loss = LossModel.from_matrix(prior.points, [[0.0, 1.0], [1.0, 0.0]])
        outputs = ap.OutputDomain(points=np.array([[0.0], [1.0]]))
        lp = build_coarse_lp(
            prior.points, prior.masses, outputs, math.log(2.0), 1.0, loss
        )
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_criterion_8_ordering_relations(bench):
    with criterion(8, "loss orderings match the expected method ranking at every budget"):
        inst = bench["inst"]
        for eps in EPS_GRID:
            aipo_loss = ap.expected_loss(bench["aipo"][eps], inst.prior, inst.loss)
            losses = {
                tag: ap.expected_loss(
                    make_method(
                        tag, inst, eps, PrivacySpec(p=METRIC_P), CompareSpec(coarse_grid=(4, 4))
                    ),
                    inst.prior, inst.loss,
                )
                for tag in ("AIPO-E", "EM", "Laplace", "RMP-EM", "CoarseLP")
            }
            assert aipo_loss <= losses["EM"] + 1e-12
            assert aipo_loss <= losses["Laplace"] + 1e-12
            assert losses["RMP-EM"] <= losses["EM"] + 1e-12
            assert aipo_loss <= losses["AIPO-E"] + 1e-12  # sweep covers the equal split
            assert losses["CoarseLP"] <= aipo_loss + 1e-12


def test_criterion_9_monotonicity(bench):
    with criterion(9, "synthesized loss is non-increasing in the total budget"):
        inst = bench["inst"]
        losses = [
            ap.expected_loss(bench["aipo"][eps], inst.prior, inst.loss)
            for eps in EPS_GRID
        ]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical config and seed reproduce byte-identical outputs"):
        cfg = {
            "domain": {"lower": [0.0, 0.0], "upper": [2.0, 2.0], "grid": [2, 2]},
            "metric": {"p": 2.0},
            "privacy": {"eps": [0.4, 1.0], "budget_mode": "sweep", "sweep_resolution": 2},
            "instance": {
                "seed": 6, "outputs": [2, 2], "graph_size": 5,
                "samples_per_cell": 2, "n_tasks": 5,
            },
            "compare": {"methods": ["AIPO", "EM", "LB"], "audit_samples": 60},
        }
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))

        def run_all(root):
            assert main(["synthesize", "--config", str(cfg_path), "--out-dir", str(root / "syn")]) == 0
            assert main([
                "audit", "--mechanism", str(root / "syn" / "mechanism_eps0.4.json"),
                "--eps", "0.4", "--samples", "80", "--out-dir", str(root / "aud"),
            ]) == 0
            assert main(["compare", "--config", str(cfg_path), "--out-dir", str(root / "cmp")]) == 0
            assert main(["lower-bound", "--config", str(cfg_path), "--out-dir", str(root / "lb")]) == 0
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        first = run_all(tmp_path / "r1")
        second = run_all(tmp_path / "r2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"
