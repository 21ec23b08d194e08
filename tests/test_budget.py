import math

import numpy as np
import pytest

from anchorpriv.apo import check_budget
from anchorpriv.errors import SolverError
from anchorpriv.budget import (
    allocation_curve_csv,
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


class TestOptimizeAllocation:
    def test_single_candidate_returned(self):
        cands = feasible_allocations(1.0, 2.0, resolution=2)[:1]
        best, curve = optimize_allocation(cands, lambda bv: 1.0)
        assert best is cands[0]
        assert len(curve) == 1

    def test_best_never_worse_than_equal_split(self):
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = lambda bv: float((bv.eps[0] - 0.2) ** 2)
        best, curve = optimize_allocation(cands, evaluator)
        eq = equal_split(1.0, 2.0, 2)
        assert evaluator(best) <= evaluator(eq) + 1e-15

    def test_order_invariance(self):
        cands = feasible_allocations(1.0, 2.0, resolution=5)
        evaluator = lambda bv: round(float(abs(bv.eps[0] - 0.3)), 3)  # ties exist
        best_fwd, _ = optimize_allocation(list(cands), evaluator)
        best_rev, _ = optimize_allocation(list(reversed(cands)), evaluator)
        assert np.array_equal(best_fwd.eps, best_rev.eps)

    def test_failing_candidates_skipped(self):
        cands = feasible_allocations(1.0, 2.0, resolution=3)

        def evaluator(bv):
            if bv.eps[0] < 0.2:
                raise SolverError("boom")
            return float(bv.eps[0])

        best, curve = optimize_allocation(cands, evaluator)
        assert all(e1 >= 0.2 for e1, _, _ in curve)
        assert best.eps[0] >= 0.2

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

    def test_curve_csv_layout(self):
        cands = feasible_allocations(1.0, 2.0, resolution=2)
        _, curve = optimize_allocation(cands, lambda bv: float(bv.eps[0]))
        text = allocation_curve_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "eps1,eps2,loss"
        assert len(lines) == len(curve) + 1
