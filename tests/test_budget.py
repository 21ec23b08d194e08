import math

import numpy as np
import pytest

from anchorpriv.errors import SolverError
from anchorpriv import formats
from anchorpriv.budget import (
    CONVENTIONS,
    LOSS_TIE_TOL,
    REFINE_STEPS,
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


def _along(f, slope):
    """Evaluator of a loss f(eps_1) with derivative slope(eps_1) along the arc.

    The gradient puts the whole derivative on eps_1, which the search reads
    as the arc derivative. Records every vector it is called with.
    """
    calls = []

    def evaluator(bv):
        calls.append(bv)
        return f(float(bv.eps[0])), np.array([slope(float(bv.eps[0])), 0.0])

    evaluator.calls = calls
    return evaluator


def _flat(loss):
    return _along(loss, lambda e1: 0.0)


def _on_grid(bv, cands):
    return any(np.abs(bv.eps - c.eps).max() <= 1e-12 for c in cands)


class TestOptimizeAllocation:
    def test_single_candidate_returned(self):
        # The equal split joins the grid and is always solved.
        cands = feasible_allocations(1.0, 2.0, resolution=2)[:1]
        evaluator = _flat(lambda e1: 1.0)
        best, curve, _ = optimize_allocation(cands, evaluator)
        eq = equal_split(1.0, 2.0, 2)
        assert np.array_equal(evaluator.calls[0].eps, eq.eps)
        assert [row[0] for row in curve] == [cands[0].eps[0], eq.eps[0]]
        assert best is cands[0]  # a tie, toward the smaller eps_1

    def test_walks_downhill_and_refines_to_the_minimizer(self):
        # Loss (eps_1 - 0.2)^2: the equal split (0.354) slopes up, so the
        # search walks left until the loss rises, and a secant step on the
        # linear derivative lands on 0.2.
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = _along(lambda e1: (e1 - 0.2) ** 2, lambda e1: 2 * (e1 - 0.2))
        best, curve, failed = optimize_allocation(cands, evaluator)
        on_grid = [bv.eps[0] for bv in evaluator.calls if _on_grid(bv, cands)]
        eq = 1 / (2 * math.sqrt(2))
        assert on_grid == pytest.approx([eq, 1 / 3, math.sqrt(0.25 - (5 / 12) ** 2), 0.25, 1 / 6,
                                         1 / 12])
        assert failed == [] and len(curve) == len(evaluator.calls) == 7
        assert best.eps[0] == pytest.approx(0.2, abs=1e-6)
        assert check_budget(best).ok and check_budget(best).slack == pytest.approx(0, abs=1e-15)
        assert [row[0] for row in curve] == sorted(row[0] for row in curve)

    def test_best_never_worse_than_equal_split(self):
        # A kink at the equal split: the derivative points left, and the
        # secant steps it suggests land on higher losses. Losses decide.
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        eq = equal_split(1.0, 2.0, 2)
        evaluator = _along(lambda e1: abs(e1 - eq.eps[0]),
                           lambda e1: 1.0 if e1 >= eq.eps[0] else -1.0)
        best, curve, _ = optimize_allocation(cands, evaluator)
        assert np.array_equal(best.eps, eq.eps)
        assert len(curve) > 2 and min(row[2] for row in curve) == 0.0

    def test_max_rule_solves_the_equal_split_alone(self):
        # Every p = 1 candidate is entrywise under (eps/2, eps/2).
        cands = feasible_allocations(1.0, 1.0, resolution=5)
        evaluator = _along(lambda e1: -e1, lambda e1: -1.0)
        best, curve, _ = optimize_allocation(cands, evaluator)
        assert len(evaluator.calls) == 1 and np.array_equal(best.eps, [0.5, 0.5])
        assert curve == [(0.5, 0.5, -0.5)]
        flat = _flat(lambda e1: 1.0)  # a constant table
        optimize_allocation(cands, flat)
        assert len(flat.calls) == 1

    def test_flat_start_walks_both_sides_across_plateaus(self):
        # A constant table at the equal split has derivative 0; the least
        # loss lies past a plateau on one side (desk, p = inf, eps 1.0).
        cands = feasible_allocations(1.0, math.inf, resolution=5)
        evaluator = _flat(lambda e1: 0.6 - 0.01 * (e1 > 0.4))
        best, curve, _ = optimize_allocation(cands, evaluator)
        assert len(curve) == len(cands) == 5
        assert best.eps[0] == pytest.approx(5 / 12)

    def test_brackets_on_losses_not_on_the_derivative(self):
        # The loss rises between two grid points although the derivative
        # is negative at both (desk, p = 2, eps 1.4): the walk stops on the
        # rise, and no secant step is taken without a sign change.
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = _along(lambda e1: -e1 + (e1 > 0.4), lambda e1: -1.0)
        best, curve, _ = optimize_allocation(cands, evaluator)
        rising = math.sqrt(0.25 - (1 / 3) ** 2)
        assert best.eps[0] == pytest.approx(rising)
        assert [row[0] for row in curve] == pytest.approx([1 / (2 * math.sqrt(2)), rising, 5 / 12])

    def test_refinement_stops_before_losses_tie(self):
        # A derivative sign change that promises less than REFINE_TOL of the
        # loss takes no secant step, so no two kept losses come near a tie.
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = _along(lambda e1: 1.0 + 1e-8 * (e1 - 0.3) ** 2,
                           lambda e1: 2e-8 * (e1 - 0.3))
        optimize_allocation(cands, evaluator)
        assert len(evaluator.calls) == 4
        assert all(_on_grid(bv, cands) for bv in evaluator.calls)
        big = _along(lambda e1: 1.0 + (e1 - 0.3) ** 2, lambda e1: 2 * (e1 - 0.3))
        optimize_allocation(cands, big)
        refined = [bv for bv in big.calls if not _on_grid(bv, cands)]
        assert 1 <= len(refined) <= REFINE_STEPS

    def test_order_invariance(self):
        cands = feasible_allocations(1.0, 2.0, resolution=5)

        def make():  # ties exist
            return _along(lambda e1: round(abs(e1 - 0.3), 3), lambda e1: math.copysign(1, e1 - 0.3))

        best_fwd, curve_fwd, _ = optimize_allocation(list(cands), make())
        best_rev, curve_rev, _ = optimize_allocation(list(reversed(cands)), make())
        assert np.array_equal(best_fwd.eps, best_rev.eps)
        assert curve_fwd == curve_rev

    def test_losses_within_rounding_tie_toward_smaller_eps1(self):
        # Candidates that store one table evaluate to losses an ulp or so
        # apart; the smallest eps_1 among them wins, whichever is lowest.
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        base = 0.6154189
        noisy = {tuple(bv.eps): base * (1 + 2e-16 * ((7 * i) % 5)) for i, bv in enumerate(cands)}
        noisy[tuple(cands[0].eps)] = base * (1 + 0.5 * LOSS_TIE_TOL)

        def evaluator(bv):
            return noisy[tuple(bv.eps)], np.zeros(2)

        best, _, _ = optimize_allocation(list(reversed(cands)), evaluator)
        assert best is cands[0]
        # A loss further above the smallest than the tolerance does not tie.
        noisy[tuple(cands[0].eps)] = base * (1 + 2 * LOSS_TIE_TOL)
        best, _, _ = optimize_allocation(cands, evaluator)
        assert best is cands[1]

    def test_failing_candidates_skipped(self):
        # Downhill is left, where eps_1 < 0.2 fails: the walk records the
        # failure, stops that side and tries the other one.
        cands = feasible_allocations(1.0, 2.0, resolution=3)

        def loss(e1):
            if e1 < 0.2:
                raise SolverError(f"boom at {e1:.3f}")
            return e1

        evaluator = _along(loss, lambda e1: 1.0)
        best, curve, failed = optimize_allocation(list(reversed(cands)), evaluator)
        firsts = [bv.eps[0] for bv in evaluator.calls]
        eq = 1 / (2 * math.sqrt(2))
        assert firsts == pytest.approx([eq, math.sqrt(0.25 - 0.375**2), 0.25, 0.125, 0.375])
        assert [row[0] for row in curve] == pytest.approx(sorted(firsts[:3] + firsts[4:]))
        assert best.eps[0] == pytest.approx(0.25)
        (bv, message), = failed
        assert bv is cands[0] and message == "boom at 0.125"

    def test_failed_start_walks_both_sides_to_a_solve(self):
        cands = feasible_allocations(1.0, 2.0, resolution=3)
        eq = 1 / (2 * math.sqrt(2))

        def loss(e1):
            if abs(e1 - eq) < 0.05:
                raise SolverError("boom")
            return e1

        evaluator = _along(loss, lambda e1: 1.0)
        best, curve, failed = optimize_allocation(cands, evaluator)
        assert len(failed) == 3 and best.eps[0] == pytest.approx(0.125)
        assert len(curve) == len(cands) - 3

    def test_all_failed_raises(self):
        cands = feasible_allocations(1.0, 2.0, resolution=2)

        def evaluator(bv):
            raise SolverError("boom")

        with pytest.raises(SolverError, match="every candidate allocation failed"):
            optimize_allocation(cands, evaluator)

    def test_evaluator_fault_propagates(self):
        # Only solver failures are skipped; a fault in the evaluator's own
        # code must not be logged away as a failed candidate.
        cands = feasible_allocations(1.0, 2.0, resolution=2)

        def evaluator(bv):
            raise TypeError("bad evaluator")

        with pytest.raises(TypeError):
            optimize_allocation(cands, evaluator)

    def test_higher_dims_unsupported(self):
        bv = equal_split(1.0, 2.0, 3)
        with pytest.raises(ValueError, match="2-D"):
            optimize_allocation([bv], _flat(lambda e1: 1.0))

    def test_curve_csv_layout(self, tmp_path):
        # The rows synthesize writes to sweep_eps<eps>.csv.
        cands = feasible_allocations(1.0, 2.0, resolution=2)
        _, curve, _ = optimize_allocation(cands, _flat(lambda e1: e1))
        text = formats.csv_text(("eps1", "eps2", "loss"), curve)
        lines = text.strip().splitlines()
        assert lines[0] == "eps1,eps2,loss"
        assert len(lines) == len(curve) + 1
        formats.write_text(tmp_path / "sweep.csv", text)
        assert np.array_equal(formats.read_float_csv(tmp_path / "sweep.csv"), np.array(curve))
