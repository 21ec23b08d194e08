import math

import numpy as np
import pytest

from anchorpriv.apo import (
    OutputDomain,
    PerturbationTable,
    SurrogateCoefficients,
    build_approx_apo,
    solve_approx_apo,
)
from anchorpriv.budget import BudgetVector, equal_split
from anchorpriv.geometry import Partition, dual_exponent, lp_distance
from anchorpriv.interpolation import Mechanism


def _mech_1d(rows, floor=None):
    part = Partition((0.0,), (1.0,), (1,))
    outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
    table = PerturbationTable(np.asarray(rows, dtype=float))
    return Mechanism(part, table, outputs, total_eps=1.0, metric_p=2.0, floor=floor)


class TestUnnormalizedInterpolant:
    def test_anchor_returns_table_entry(self):
        mech = _mech_1d([[0.2, 0.8], [0.7, 0.3]])
        scores = np.exp(mech.log_scores([[0.0], [1.0]]))
        assert scores[0, 0] == pytest.approx(0.2, abs=1e-15)
        assert scores[1, 1] == pytest.approx(0.3, abs=1e-15)

    def test_midpoint_reduces_to_logcvx(self):
        mech = _mech_1d([[0.2, 0.8], [0.8, 0.2]])
        assert np.exp(mech.log_scores([[0.5]]))[0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_equal_corners_give_constant(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (1, 1))
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        table = PerturbationTable(np.array([[0.3, 0.7]] * 4))
        mech = Mechanism(part, table, outputs, floor=None)
        scores = np.exp(mech.log_scores([(0.2, 0.9), (0.5, 0.5), (0.77, 0.13)]))
        assert scores[:, 0] == pytest.approx([0.3] * 3, abs=1e-12)


class TestDistributionAt:
    def test_normalized_anchor_row_unchanged(self):
        mech = _mech_1d([[0.2, 0.8], [0.7, 0.3]])
        assert mech.distribution_at((0.0,)) == pytest.approx([0.2, 0.8], abs=1e-12)

    def test_midpoint_renormalizes_geometric_means(self):
        mech = _mech_1d([[0.2, 0.8], [0.8, 0.2]])
        # both outputs interpolate to 0.4; normalization yields a coin flip
        assert mech.distribution_at((0.5,)) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_invariant_to_scaling_the_table(self):
        mech = _mech_1d([[0.2, 0.8], [0.7, 0.3]])
        scaled = _mech_1d([[0.2, 0.8], [0.7, 0.3]])
        scaled._log_table = scaled._log_table + math.log(7.3)  # scale by 7.3
        for x in ((0.1,), (0.5,), (0.9,)):
            assert scaled.distribution_at(x) == pytest.approx(
                mech.distribution_at(x), abs=1e-12
            )

    def test_sums_to_one_everywhere(self):
        rng = np.random.default_rng(2)
        part = Partition((0.0, 0.0), (2.0, 2.0), (3, 2))
        outputs = OutputDomain(points=rng.random((5, 2)))
        raw = rng.random((part.n_anchors, 5)) + 0.05
        table = PerturbationTable(raw / raw.sum(axis=1, keepdims=True))
        mech = Mechanism(part, table, outputs)
        for _ in range(50):
            x = rng.random(2) * 2.0
            assert mech.distribution_at(x).sum() == pytest.approx(1.0, abs=1e-12)

    def test_continuity_across_cell_faces(self):
        rng = np.random.default_rng(3)
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        raw = rng.random((part.n_anchors, 4)) + 0.05
        table = PerturbationTable(raw / raw.sum(axis=1, keepdims=True))
        outputs = OutputDomain(points=rng.random((4, 2)))
        mech = Mechanism(part, table, outputs)
        for t in np.linspace(0.05, 0.95, 7):
            left = mech.distribution_at((0.5 - 1e-12, t))
            right = mech.distribution_at((0.5 + 1e-12, t))
            assert np.allclose(left, right, atol=1e-10)


class TestSampling:
    def test_degenerate_distribution(self):
        mech = _mech_1d([[1.0 - 1e-12, 1e-12], [1.0 - 1e-12, 1e-12]], floor=None)
        draws = {mech.sample((0.3,), seed) for seed in range(20)}
        assert draws == {0}

    def test_fixed_seed_reproducible(self):
        mech = _mech_1d([[0.2, 0.8], [0.7, 0.3]])
        rng1 = np.random.default_rng(123)
        rng2 = np.random.default_rng(123)
        seq1 = [mech.sample((0.4,), rng1) for _ in range(100)]
        seq2 = [mech.sample((0.4,), rng2) for _ in range(100)]
        assert seq1 == seq2

    def test_empirical_frequencies_match(self):
        mech = _mech_1d([[0.2, 0.8], [0.8, 0.2]])
        x = (0.25,)
        probs = mech.distribution_at(x)
        n = 100_000
        rng = np.random.default_rng(77)
        counts = np.bincount(mech.sample(np.tile(x, (n, 1)), rng), minlength=2)
        for k in range(2):
            sigma = math.sqrt(n * probs[k] * (1 - probs[k]))
            assert abs(counts[k] - n * probs[k]) <= 3 * sigma


def _lipschitz_table(part, n_outputs, eps_axes, rng):
    """Anchor table meeting per-axis ratio bounds by construction.

    Log-potentials with per-axis slope at most eps_l / 2 keep the
    normalized rows within exp(eps_l * delta_l) of axis neighbors.
    """
    slopes = rng.uniform(-1.0, 1.0, size=(n_outputs, part.n_dims)) * (
        np.asarray(eps_axes) / 2.0
    )
    phi = part.anchors @ slopes.T
    phi += rng.uniform(-0.3, 0.3, size=(1, n_outputs))
    z = np.exp(phi - phi.max(axis=1, keepdims=True))
    return PerturbationTable(z / z.sum(axis=1, keepdims=True))


class TestValidityBounds:
    def test_intra_interval_one_dimension(self):
        eps1 = 0.9
        part = Partition((0.0,), (1.0,), (1,))
        outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
        lo, hi = 0.25, 0.25 * math.exp(eps1)  # exactly eps1-separated in log
        table = PerturbationTable(
            np.array([[lo, 1 - lo], [hi, 1 - hi]])
        )
        mech = Mechanism(part, outputs=outputs, table=table, floor=None)
        grid = np.linspace(0.0, 1.0, 40)
        logs = mech.log_scores(grid[:, None])
        for i, a in enumerate(grid):
            for j, b in enumerate(grid):
                if a == b:
                    continue
                for k in range(2):
                    assert abs(logs[i, k] - logs[j, k]) <= eps1 * abs(a - b) + 1e-9

    def test_across_interval_one_dimension(self):
        rng = np.random.default_rng(8)
        eps1 = 1.3
        part = Partition((0.0,), (3.0,), (3,))
        outputs = OutputDomain(points=np.array([[0.0], [1.5], [3.0]]))
        table = _lipschitz_table(part, 3, [eps1], rng)
        mech = Mechanism(part, table, outputs, floor=None)
        pts = rng.random(60) * 3.0
        logs = mech.log_scores(pts[:, None])
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                gaps = np.abs(logs[i] - logs[j])
                assert np.all(gaps <= eps1 * abs(pts[i] - pts[j]) + 1e-9)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    def test_composed_bound_in_two_dimensions(self, p):
        rng = np.random.default_rng(int(p * 10))
        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        outputs = OutputDomain(points=rng.random((4, 2)) * 2)
        eps_axes = rng.uniform(0.2, 0.8, size=2)
        table = _lipschitz_table(part, 4, eps_axes, rng)
        mech = Mechanism(part, table, outputs, floor=None)
        q = dual_exponent(p)
        if p == 1:
            eps_prime = float(np.max(eps_axes))
        else:
            eps_prime = float(np.sum(eps_axes**q) ** (1.0 / q))
        pts = rng.random((40, 2)) * 2.0
        raw = mech.log_scores(pts)
        norm = mech.log_probs(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = lp_distance(pts[i], pts[j], p)
                assert np.all(np.abs(raw[i] - raw[j]) <= eps_prime * d + 1e-9)
                assert np.all(np.abs(norm[i] - norm[j]) <= 2 * eps_prime * d + 1e-9)

    def test_dimension_wise_bound_three_dimensions(self):
        rng = np.random.default_rng(14)
        part = Partition((0.0,) * 3, (1.0,) * 3, (2, 2, 2))
        outputs = OutputDomain(points=rng.random((3, 3)))
        eps_axes = rng.uniform(0.3, 1.0, size=3)
        table = _lipschitz_table(part, 3, eps_axes, rng)
        mech = Mechanism(part, table, outputs, floor=None)
        pts = rng.random((25, 3))
        logs = mech.log_scores(pts)
        eps_prime = float(np.sum(eps_axes**2) ** 0.5)  # dual of p = 2
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                bound = float(np.sum(eps_axes * np.abs(pts[i] - pts[j])))
                gaps = np.abs(logs[i] - logs[j])
                assert np.all(gaps <= bound + 1e-9)
                d2 = lp_distance(pts[i], pts[j], 2)
                assert np.all(gaps <= eps_prime * d2 + 1e-9)

    def test_solved_tables_meet_composed_bound(self):
        # end to end: anchor program -> floored mechanism -> pairwise bound
        rng = np.random.default_rng(15)
        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        outputs = OutputDomain(points=rng.random((3, 2)) * 2)
        coeffs = SurrogateCoefficients(matrix=rng.random((part.n_anchors, 3)) * 4)
        for eps in (0.4, 1.2):
            bv = equal_split(eps, 2.0, 2)
            table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
            mech = Mechanism(part, table, outputs, budget=bv)
            eps_prime = float(np.sum(bv.eps**2) ** 0.5)
            pts = rng.random((30, 2)) * 2.0
            norm = mech.log_probs(pts)
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    d = lp_distance(pts[i], pts[j], 2)
                    assert np.all(
                        np.abs(norm[i] - norm[j]) <= 2 * eps_prime * d + 1e-9
                    )


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        part = Partition((0.0, 0.0), (1.5, 1.0), (2, 3))
        outputs = OutputDomain(points=rng.random((4, 2)))
        raw = rng.random((part.n_anchors, 4)) + 0.01
        table = PerturbationTable(raw / raw.sum(axis=1, keepdims=True))
        bv = BudgetVector(eps=np.array([0.2, 0.3]), total_eps=1.0, p=2.0)
        mech = Mechanism(part, table, outputs, budget=bv)
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        mech.save(first)
        loaded = Mechanism.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        x = (0.7, 0.4)
        assert np.array_equal(loaded.distribution_at(x), mech.distribution_at(x))
        assert loaded.budget.p == 2.0
        assert loaded.total_eps == 1.0

    def test_budget_needs_one_entry_per_axis(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (1, 1))
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        table = PerturbationTable(np.array([[0.3, 0.7]] * 4))
        bv = BudgetVector(eps=np.array([0.2]), total_eps=1.0, p=2.0)
        with pytest.raises(ValueError):
            Mechanism(part, table, outputs, budget=bv)

    def test_only_version_1_is_read(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (1, 1))
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        payload = Mechanism(part, PerturbationTable(np.array([[0.3, 0.7]] * 4)), outputs).to_json_dict()
        assert payload["version"] == 1
        Mechanism.from_json_dict(payload)
        for version in (2, 0, "1", 1.0, True, None):
            with pytest.raises(ValueError, match="version"):
                Mechanism.from_json_dict(dict(payload, version=version))
        del payload["version"]
        with pytest.raises(ValueError, match="'version'"):
            Mechanism.from_json_dict(payload)
