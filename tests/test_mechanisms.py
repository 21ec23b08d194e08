import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from anchorpriv.apo import OutputDomain, PerturbationTable
from anchorpriv.audit import violation_ratio
from anchorpriv.errors import OutOfDomainError
from anchorpriv.evaluation import LossModel, PriorModel, expected_loss
from anchorpriv.geometry import Partition, interpolation_weights, locate_cell, lp_distance
from anchorpriv.interpolation import Mechanism
from anchorpriv.mechanisms import (
    CoarseLpMechanism,
    ExponentialMechanism,
    PlanarLaplaceMechanism,
    RemappedMechanism,
    TruncatedExponentialMechanism,
    bayesian_remap,
    log_normalize,
)

BOX = ((0.0, 0.0), (1.0, 1.0))
LINE = ((0.0,), (1.0,))


class TestExponential:
    def test_single_candidate(self):
        outputs = OutputDomain(points=np.array([[0.3, 0.3]]))
        mech = ExponentialMechanism(outputs, BOX, 1.0, 2.0)
        assert mech.distribution_at((0.1, 0.1)) == pytest.approx([1.0])

    def test_equidistant_candidates_split_evenly(self):
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 0.0]]))
        dist = ExponentialMechanism(outputs, BOX, 1.3, 2.0).distribution_at((0.5, 0.0))
        assert dist == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_line_instance_hand_numbers(self):
        outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
        dist = ExponentialMechanism(outputs, LINE, 2.0, 1.0).distribution_at((0.0,))
        expect = np.array([1.0, math.exp(-1.0)])
        expect /= expect.sum()
        assert dist == pytest.approx(expect, abs=1e-12)
        assert dist[0] == pytest.approx(0.7311, abs=1e-4)
        assert dist[1] == pytest.approx(0.2689, abs=1e-4)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        outputs = OutputDomain(points=rng.random((7, 2)))
        mech = ExponentialMechanism(outputs, BOX, 0.7, 2.0)
        for _ in range(20):
            dist = mech.distribution_at(rng.random(2))
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_half_exponent_audits_clean(self):
        rng = np.random.default_rng(1)
        outputs = OutputDomain(points=rng.random((5, 2)))
        mech = ExponentialMechanism(outputs, BOX, eps=0.8, p=2.0)
        report = violation_ratio(mech, 0.8, 2.0, sample_count=150, seed=3)
        assert report.violating_pairs == 0


class TestPlanarLaplace:
    def test_symmetric_candidates_uniform(self):
        outputs = OutputDomain(points=np.array([[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]]))
        dist = PlanarLaplaceMechanism(outputs, BOX, 1.0).distribution_at((0.5, 0.5))
        assert dist == pytest.approx([0.25] * 4, abs=1e-12)

    def test_requires_two_dimensions(self):
        outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            PlanarLaplaceMechanism(outputs, LINE, 1.0).distribution_at((0.5,))

    def test_matches_em_at_doubled_budget(self):
        rng = np.random.default_rng(2)
        outputs = OutputDomain(points=rng.random((6, 2)))
        x = rng.random(2)
        laplace = PlanarLaplaceMechanism(outputs, BOX, 0.9)
        em = ExponentialMechanism(outputs, BOX, 1.8, 2.0)
        assert laplace.distribution_at(x) == pytest.approx(em.distribution_at(x), abs=1e-12)

    def test_ratio_bounded_by_twice_budget(self):
        rng = np.random.default_rng(3)
        outputs = OutputDomain(points=rng.random((5, 2)))
        mech = PlanarLaplaceMechanism(outputs, BOX, eps=1.1)
        report = violation_ratio(mech, 2 * 1.1, 2.0, sample_count=150, seed=5)
        assert report.violating_pairs == 0
        assert report.max_ppr <= 2 * 1.1 + 1e-9


class TestTruncated:
    def test_wide_radius_equals_em(self):
        rng = np.random.default_rng(4)
        outputs = OutputDomain(points=rng.random((6, 2)))
        x = rng.random(2)
        tem = TruncatedExponentialMechanism(outputs, BOX, 1.0, 2.0, radius=10.0)
        em = ExponentialMechanism(outputs, BOX, 1.0, 2.0)
        assert tem.distribution_at(x) == pytest.approx(em.distribution_at(x), abs=1e-12)

    def test_empty_support_rejected(self):
        outputs = OutputDomain(points=np.array([[5.0, 5.0]]))
        with pytest.raises(ValueError):
            TruncatedExponentialMechanism(outputs, BOX, 1.0, 2.0, radius=1.0).distribution_at(
                (0.0, 0.0)
            )

    def test_truncation_drops_far_candidates(self):
        outputs = OutputDomain(points=np.array([[0.0], [1.0], [10.0]]))
        mech = TruncatedExponentialMechanism(outputs, LINE, 2.0, 1.0, radius=2.0)
        dist = mech.distribution_at((0.0,))
        assert dist[2] == 0.0
        expect = np.array([1.0, math.exp(-1.0)])
        expect /= expect.sum()
        assert dist[:2] == pytest.approx(expect, abs=1e-12)

    def test_default_radius_tracks_budget(self):
        mech = TruncatedExponentialMechanism(
            OutputDomain(points=np.array([[0.0, 0.0]])), BOX, eps=2.0, p=2.0
        )
        assert mech.radius == pytest.approx(1.5)


def _prior_loss_pair(rng, n_pts=6, k=4):
    pts = rng.random((n_pts, 2))
    masses = rng.random(n_pts)
    masses /= masses.sum()
    loss_rows = rng.random((n_pts, k)) * 3.0
    prior = PriorModel(pts, masses)
    loss = LossModel.from_matrix(pts, loss_rows)
    outputs = OutputDomain(points=rng.random((k, 2)))
    return prior, loss, outputs


class TestBayesianRemap:
    def test_identity_when_base_already_optimal(self):
        # single sample point: the posterior is degenerate and the argmin
        # column is the remap target for every output
        pts = np.array([[0.5, 0.5]])
        prior = PriorModel(pts, [1.0])
        loss = LossModel.from_matrix(pts, [[0.0, 1.0]])
        outputs = OutputDomain(points=np.array([[0.5, 0.5], [0.9, 0.9]]))
        base = ExponentialMechanism(outputs, BOX, eps=1.0, p=2.0)
        remapped = bayesian_remap(base, prior, loss)
        assert list(remapped.remap) == [0, 0]

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[0.5, 0.5]])
        prior = PriorModel(pts, [1.0])
        loss = LossModel.from_matrix(pts, [[2.0, 2.0]])  # identical columns
        outputs = OutputDomain(points=np.array([[0.4, 0.4], [0.6, 0.6]]))
        base = ExponentialMechanism(outputs, BOX, eps=1.0, p=2.0)
        remapped = bayesian_remap(base, prior, loss)
        assert list(remapped.remap) == [0, 0]

    def test_expected_loss_never_increases(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            prior, loss, outputs = _prior_loss_pair(rng)
            base = ExponentialMechanism(outputs, BOX, eps=float(rng.uniform(0.5, 2)), p=2.0)
            remapped = bayesian_remap(base, prior, loss)
            assert expected_loss(remapped, prior, loss) <= expected_loss(base, prior, loss) + 1e-12

    def test_violations_subset_of_base(self):
        rng = np.random.default_rng(7)
        prior, loss, outputs = _prior_loss_pair(rng, k=5)
        base = PlanarLaplaceMechanism(outputs, BOX, eps=1.4)
        remapped = bayesian_remap(base, prior, loss)
        eps_check = 1.4  # audit the base guarantee level, violations possible
        base_rep = violation_ratio(base, eps_check, 2.0, sample_count=150, seed=11)
        remap_rep = violation_ratio(remapped, eps_check, 2.0, sample_count=150, seed=11)
        assert remap_rep.violating_pairs <= base_rep.violating_pairs
        assert remap_rep.max_ppr <= base_rep.max_ppr + 1e-9

    def test_distribution_aggregates_by_remap(self):
        rng = np.random.default_rng(8)
        outputs = OutputDomain(points=rng.random((4, 2)))
        base = ExponentialMechanism(outputs, BOX, eps=1.0, p=2.0)
        remapped = RemappedMechanism(base, [0, 0, 3, 3])
        x = rng.random(2)
        dist = remapped.distribution_at(x)
        bd = base.distribution_at(x)
        assert dist[0] == pytest.approx(bd[0] + bd[1], abs=1e-12)
        assert dist[3] == pytest.approx(bd[2] + bd[3], abs=1e-12)
        assert dist[1] == dist[2] == 0.0


class TestCoarseLpMechanism:
    def test_nearest_representative_lookup(self):
        from anchorpriv.apo import PerturbationTable

        reps = np.array([[0.25, 0.25], [0.75, 0.75]])
        table = PerturbationTable([[0.9, 0.1], [0.2, 0.8]])
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        mech = CoarseLpMechanism(reps, table, outputs, BOX)
        assert mech.distribution_at((0.1, 0.1)) == pytest.approx([0.9, 0.1])
        assert mech.distribution_at((0.9, 0.6)) == pytest.approx([0.2, 0.8])

    def test_piecewise_constant_leaks_near_boundaries(self):
        from anchorpriv.apo import PerturbationTable

        reps = np.array([[0.25, 0.5], [0.75, 0.5]])
        table = PerturbationTable([[0.8, 0.2], [0.2, 0.8]])
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        mech = CoarseLpMechanism(reps, table, outputs, BOX)
        report = violation_ratio(mech, 0.5, 2.0, sample_count=120, seed=1)
        assert report.violating_pairs > 0


# One instance of every mechanism kind on a 2 x 3 cell grid over
# [0, 2] x [0, 1.5] (cell sides 1.0 and 0.5).
_PART = Partition((0.0, 0.0), (2.0, 1.5), (2, 3))
_OUTPUTS = OutputDomain(
    points=np.array([[0.5, 0.375], [1.5, 0.375], [0.5, 1.125], [1.5, 1.125], [1.0, 0.75]])
)
_RNG = np.random.default_rng(21)
_RAW = _RNG.random((_PART.n_anchors, 5)) + 0.05
_INTERP = Mechanism(_PART, PerturbationTable(_RAW / _RAW.sum(axis=1, keepdims=True)), _OUTPUTS)
_REPS = np.array([[0.3, 0.4], [1.3, 1.1], [0.9, 0.2]])
_COARSE_RAW = _RNG.random((3, 5))
_COARSE = CoarseLpMechanism(
    _REPS, PerturbationTable(_COARSE_RAW / _COARSE_RAW.sum(axis=1, keepdims=True)),
    _OUTPUTS, _PART.bounds,
)
_KINDS = {
    "interpolated": _INTERP,
    "EM": ExponentialMechanism(_OUTPUTS, _PART.bounds, 0.9, 1.5),
    "Laplace": PlanarLaplaceMechanism(_OUTPUTS, _PART.bounds, 1.1),
    "TEM": TruncatedExponentialMechanism(_OUTPUTS, _PART.bounds, 1.0, math.inf, radius=0.8),
    "CoarseLP": _COARSE,
    "remapped": RemappedMechanism(_INTERP, [0, 0, 2, 2, 4]),
}


def _normalize(scores):
    with np.errstate(divide="ignore"):
        return scores - math.log(np.sum(np.exp(scores)))


def _reference(mech, x):
    """Per-point log-probabilities from the scalar geometry rules."""
    if isinstance(mech, Mechanism):
        m = locate_cell(_PART, x)
        _, w = interpolation_weights(_PART.cell_lower[m], _PART.deltas, x)
        return _normalize(w @ np.log(mech.table.probs[_PART.cell_corner_anchors[m]]))
    if isinstance(mech, RemappedMechanism):
        base = np.exp(_reference(mech.base, x))
        out = np.zeros(base.size)
        for k, target in enumerate(mech.remap):
            out[target] += base[k]
        with np.errstate(divide="ignore"):
            return np.log(out)
    if isinstance(mech, CoarseLpMechanism):
        row = np.argmin([lp_distance(x, r, 2.0) for r in mech.representatives])
        return np.log(mech.table.probs[row])
    d = np.array([lp_distance(x, y, mech.metric_p) for y in mech.outputs.points])
    scores = -mech.exponent_factor * mech.eps * d
    if isinstance(mech, TruncatedExponentialMechanism):
        scores[d > mech.radius] = -np.inf
    return _normalize(scores)


def _coordinate(upper, side):
    # Quarter-cell multiples hit interior faces and the upper boundary.
    steps = int(round(upper / side)) * 4
    return st.one_of(
        st.integers(0, steps).map(lambda i: i * side / 4),
        st.floats(0.0, upper),
    )


_POINTS = st.lists(
    st.tuples(_coordinate(2.0, 1.0), _coordinate(1.5, 0.5)), min_size=1, max_size=12
).map(np.array)


class TestBatchedLogProbs:
    @settings(max_examples=60, deadline=None)
    @given(X=_POINTS)
    def test_matches_per_point_reference(self, X):
        for name, mech in _KINDS.items():
            batched = mech.log_probs(X)
            assert batched.shape == (X.shape[0], _OUTPUTS.size), name
            expect = np.stack([_reference(mech, x) for x in X])
            np.testing.assert_allclose(batched, expect, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("name", sorted(_KINDS))
    def test_rejects_non_finite_and_misshapen_rows(self, name):
        mech = _KINDS[name]
        with pytest.raises(ValueError) as info:
            mech.log_probs(np.array([[0.5, 0.5], [np.nan, 0.5]]))
        assert not isinstance(info.value, OutOfDomainError)
        with pytest.raises(ValueError):
            mech.log_probs(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            mech.log_probs(np.array([[0.5, 0.5, 0.5]]))

    @pytest.mark.parametrize("name", ["interpolated", "remapped"])
    def test_rejects_out_of_domain_row(self, name):
        with pytest.raises(OutOfDomainError):
            _KINDS[name].log_probs(np.array([[0.5, 0.5], [2.0 + 1e-9, 0.5]]))


def _scipy_log_normalize(scores):
    with np.errstate(invalid="ignore"):
        return scores - logsumexp(scores, axis=1, keepdims=True)


class TestLogNormalize:
    """log_normalize against scipy.special.logsumexp, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 12)),
                  elements=st.one_of(st.floats(-1e6, 0.0), st.sampled_from([-np.inf, -1.5, 0.0]),
                                     st.floats(-1e300, -1e-300))))
    def test_equals_scipy(self, scores):
        # Sampled values give ties and -inf entries, in rows of one column too.
        with np.errstate(invalid="ignore"):
            assert log_normalize(scores).tobytes() == _scipy_log_normalize(scores).tobytes()

    @pytest.mark.parametrize("rows", [
        [[-0.25, -0.25, -1.0, -0.25]],                # three-way tie at the top
        [[-np.inf, -2.0, -np.inf], [-3.0, -3.0, -np.inf]],
        [[0.0], [-np.inf], [-7.5]],                   # one column
        [[-1e308, 0.0, -1e-308], [-745.2, -745.1, 0.0], [-40.0, -1e-17, -36.9]],
        [[-np.inf, -np.inf]],                         # nothing left to normalize
    ])
    def test_equals_scipy_on_edge_rows(self, rows):
        scores = np.array(rows)
        with np.errstate(invalid="ignore"):
            assert log_normalize(scores).tobytes() == _scipy_log_normalize(scores).tobytes()

    def test_em_rows_equal_scipy(self):
        # Exponential-mechanism rows, with exact distance ties on a lattice.
        rng = np.random.default_rng(4)
        outputs = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), -1).reshape(-1, 2)
        points = np.vstack([rng.random((200, 2)) * 4, outputs + 0.5])
        d = np.sqrt(((points[:, None] - outputs[None]) ** 2).sum(-1))
        for eps in (0.1, 0.8, 5.0, 60.0):
            scores = -0.5 * eps * d
            assert log_normalize(scores).tobytes() == _scipy_log_normalize(scores).tobytes()
