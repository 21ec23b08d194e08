import math

import numpy as np
import pytest

from anchorpriv.errors import SolverError
from anchorpriv import formats
from anchorpriv.budget import (
    CONVENTIONS,
    LOSS_TIE_TOL,
    BudgetVector,
    check_budget,
    equal_split,
    feasible_allocations,
    optimize_allocation,
)


class TestEqualSplit:
    def test_p2_two_dims(self):
        bv = equal_split(1.0, 2.0, 2)
        assert bv.eps == pytest.approx([1 / (2 * math.sqrt(2))] * 2, abs=1e-12)
        assert bv.eps[0] == pytest.approx(0.353553, abs=1e-6)

    def test_p1_max_rule(self):
        bv = equal_split(0.6, 1.0, 3)
        assert bv.eps == pytest.approx([0.3, 0.3, 0.3], abs=1e-15)

    def test_p_infinity_splits_linearly(self):
        bv = equal_split(1.0, math.inf, 4)
        assert bv.eps == pytest.approx([0.125] * 4, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_always_passes_certificate_with_tiny_slack(self, p, n):
        bv = equal_split(1.3, p, n)
        chk = check_budget(bv)
        assert chk.ok
        assert abs(chk.slack) <= 1e-12

    def test_alternate_conventions(self):
        assert equal_split(1.0, 2.0, 2, convention="full-primal").eps[0] == pytest.approx(
            1 / math.sqrt(2)
        )
        assert equal_split(1.0, 2.0, 2, convention="full-dual").eps[0] == pytest.approx(
            1 / math.sqrt(2)
        )
        with pytest.raises(ValueError):
            equal_split(1.0, 2.0, 2, convention="bogus")


class TestFeasibleAllocations:
    def test_resolution_three_contents(self):
        cands = feasible_allocations(1.0, 2.0, resolution=3)
        firsts = sorted(float(bv.eps[0]) for bv in cands)
        assert 0.125 in firsts
        eq = 1 / (2 * math.sqrt(2))
        assert any(abs(a - eq) < 1e-12 for a in firsts)
        mirror = math.sqrt(0.25 - 0.125**2)
        assert any(abs(a - mirror) < 1e-12 for a in firsts)

    def test_every_candidate_passes_certificate(self):
        for p in (1, 1.5, 2, 3):
            for bv in feasible_allocations(0.9, p, resolution=4):
                assert check_budget(bv).ok

    def test_mirror_symmetry(self):
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        pairs = {(round(float(b.eps[0]), 10), round(float(b.eps[1]), 10)) for b in cands}
        assert pairs == {(b, a) for a, b in pairs}

    def test_endpoints_excluded(self):
        for bv in feasible_allocations(1.0, 2.0, resolution=6):
            assert bv.eps.min() > 0.0
            assert bv.eps.max() < 0.5

    def test_higher_dims_unsupported(self):
        with pytest.raises(ValueError):
            feasible_allocations(1.0, 2.0, n_dims=3)

    def test_p1_pairs_with_max_rule(self):
        for bv in feasible_allocations(1.0, 1.0, resolution=3):
            assert bv.eps.max() <= 0.5 + 1e-12


class TestArcTolerance:
    """The arc check scales with the bound, which grows as eps^q."""

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("eps", [1e-9, 1e-4, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    def test_equal_split_and_arc_samples_pass_at_any_scale(self, p, eps, convention):
        # feasible_allocations raises if one of its own samples fails the check.
        cands = feasible_allocations(eps, p, resolution=7, convention=convention)
        for bv in [equal_split(eps, p, 2, convention=convention), *cands]:
            chk = check_budget(bv, convention)
            assert chk.ok and chk.lhs <= chk.rhs * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    def test_vector_far_over_a_tiny_bound_fails(self, p):
        # A fixed margin of 1e-12 once let 2e-14 pass against a bound of 2.5e-19.
        bv = BudgetVector(eps=np.array([1e-7, 1e-7]), total_eps=1e-9, p=p)
        assert not check_budget(bv).ok

    def test_each_convention_reads_its_own_arc(self):
        bv = BudgetVector(eps=np.array([0.4, 0.4]), total_eps=1.0, p=2.0)
        assert [check_budget(bv, c).ok for c in CONVENTIONS] == [False, True, True]
        chk = check_budget(BudgetVector(eps=np.array([5.0, 5.0]), total_eps=0.8, p=2.0),
                           "full-dual")
        assert not chk.ok and (chk.lhs, chk.rhs) == (50.0, pytest.approx(0.64))
        with pytest.raises(ValueError, match="unknown budget convention"):
            check_budget(bv, "bogus")


class TestOptimizeAllocation:
    def test_single_candidate_returned(self):
        cands = feasible_allocations(1.0, 2.0, resolution=2)[:1]
        best, curve, _ = optimize_allocation(cands, lambda bv: 1.0)
        assert best is cands[0]
        assert len(curve) == 1

    def test_best_never_worse_than_equal_split(self):
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = lambda bv: float((bv.eps[0] - 0.2) ** 2)
        best, curve, _ = optimize_allocation(cands, evaluator)
        eq = equal_split(1.0, 2.0, 2)
        assert evaluator(best) <= evaluator(eq) + 1e-15

    def test_order_invariance(self):
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = lambda bv: round(float(abs(bv.eps[0] - 0.3)), 3)  # ties exist
        best_fwd, _, _ = optimize_allocation(list(cands), evaluator)
        best_rev, _, _ = optimize_allocation(list(reversed(cands)), evaluator)
        assert np.array_equal(best_fwd.eps, best_rev.eps)

    def test_losses_within_rounding_tie_toward_smaller_eps1(self):
        # Candidates that store one table evaluate to losses an ulp or so
        # apart; the smallest eps_1 among them wins, whichever is lowest.
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        base = 0.6154189
        noisy = {tuple(bv.eps): base * (1 + 2e-16 * ((7 * i) % 5)) for i, bv in enumerate(cands)}
        noisy[tuple(cands[0].eps)] = base * (1 + 0.5 * LOSS_TIE_TOL)
        best, _, _ = optimize_allocation(list(reversed(cands)), lambda bv: noisy[tuple(bv.eps)])
        assert best is cands[0]
        # A loss further above the smallest than the tolerance does not tie.
        noisy[tuple(cands[0].eps)] = base * (1 + 2 * LOSS_TIE_TOL)
        best, _, _ = optimize_allocation(cands, lambda bv: noisy[tuple(bv.eps)])
        assert best is cands[1]

    def test_failing_candidates_skipped(self):
        cands = feasible_allocations(1.0, 2.0, resolution=3)

        def evaluator(bv):
            if bv.eps[0] < 0.2:
                raise SolverError(f"boom at {bv.eps[0]:.3f}")
            return float(bv.eps[0])

        best, curve, failed = optimize_allocation(list(reversed(cands)), evaluator)
        assert all(e1 >= 0.2 for e1, _, _ in curve)
        assert best.eps[0] >= 0.2
        # Every skipped candidate is returned with its message, in eps_1 order.
        skipped = [bv for bv in cands if bv.eps[0] < 0.2]
        assert skipped and len(failed) == len(skipped)
        assert len(curve) + len(failed) == len(cands)
        for (bv, message), want in zip(failed, skipped):
            assert bv is want
            assert message == f"boom at {want.eps[0]:.3f}"

    def test_all_failed_raises(self):
        cands = feasible_allocations(1.0, 2.0, resolution=2)

        def evaluator(bv):
            raise SolverError("boom")

        with pytest.raises(SolverError):
            optimize_allocation(cands, evaluator)

    def test_evaluator_fault_propagates(self):
        # Only solver failures are skipped; a fault in the evaluator's own
        # code must not be logged away as a failed candidate.
        cands = feasible_allocations(1.0, 2.0, resolution=2)

        def evaluator(bv):
            raise TypeError("bad evaluator")

        with pytest.raises(TypeError):
            optimize_allocation(cands, evaluator)

    def test_curve_csv_layout(self, tmp_path):
        # The rows synthesize writes to sweep_eps<eps>.csv.
        cands = feasible_allocations(1.0, 2.0, resolution=2)
        _, curve, _ = optimize_allocation(cands, lambda bv: float(bv.eps[0]))
        text = formats.csv_text(("eps1", "eps2", "loss"), curve)
        lines = text.strip().splitlines()
        assert lines[0] == "eps1,eps2,loss"
        assert len(lines) == len(curve) + 1
        formats.write_text(tmp_path / "sweep.csv", text)
        assert np.array_equal(formats.read_float_csv(tmp_path / "sweep.csv"), np.array(curve))
