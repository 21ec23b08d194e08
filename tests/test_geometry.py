import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpriv.errors import OutOfDomainError
from anchorpriv.geometry import (
    Cell,
    axis_neighbors,
    corner_offsets,
    interpolation_weights,
    locate_cell,
    lp_distance,
    partition_domain,
)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 1.0))


class TestLpDistance:
    def test_identity(self):
        assert lp_distance((0, 0), (0, 0), 2) == 0.0

    def test_345_triangle(self):
        assert lp_distance((0, 0), (3, 4), 2) == pytest.approx(5.0)

    def test_coordinate_sum(self):
        assert lp_distance((0, 0), (3, 4), 1) == pytest.approx(7.0)

    def test_coordinate_max(self):
        assert lp_distance((0, 0), (3, 4), math.inf) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_distance((0, 0), (1, 2, 3), 2)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_distance((0, 0), (1, 1), 0.5)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(*[
                st.lists(st.floats(-50, 50), min_size=n, max_size=n)
                for _ in range(3)
            ])
        ),
        st.sampled_from([1, 1.5, 2, 3, math.inf]),
    )
    def test_triangle_inequality(self, triple, p):
        a, b, c = (np.array(v) for v in triple)
        lhs = lp_distance(a, c, p)
        rhs = lp_distance(a, b, p) + lp_distance(b, c, p)
        assert lhs <= rhs + 1e-12 * (1 + rhs)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        st.sampled_from([1, 1.5, 2, 3, math.inf]),
    )
    def test_symmetry_and_nonnegativity(self, a, b, p):
        d = lp_distance(a, b, p)
        assert d >= 0
        assert d == pytest.approx(lp_distance(b, a, p), abs=1e-12)


class TestPartitionDomain:
    def test_single_cell_unit_square(self):
        part = partition_domain(UNIT_SQUARE, (1, 1))
        assert part.n_cells == 1
        assert part.n_anchors == 4

    def test_two_by_two_lattice_count(self):
        part = partition_domain(UNIT_SQUARE, (2, 2))
        assert part.n_cells == 4
        assert part.n_anchors == 9  # (2+1)^2 lattice

    def test_one_dimensional(self):
        part = partition_domain(((0.0,), (1.0,)), (4,))
        assert part.n_cells == 4
        assert part.n_anchors == 5

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            partition_domain(UNIT_SQUARE, (0, 2))

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            partition_domain(((0.0, 0.0), (1.0, 0.0)), (1, 1))

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            partition_domain(((0.0, 0.0), (1.0,)), (1, 1))

    def test_cells_tile_bounds(self):
        part = partition_domain(UNIT_SQUARE, (3, 2))
        total = sum(part.cell(m).volume for m in range(part.n_cells))
        assert total == pytest.approx(1.0, abs=1e-12)
        # every cell corner appears in the anchor lattice exactly once
        corners = np.concatenate([part.cell(m).corners() for m in range(part.n_cells)])
        uniq = np.unique(np.round(corners, 12), axis=0)
        assert uniq.shape[0] == part.n_anchors


class TestLocateCell:
    def test_interior_point(self):
        part = partition_domain(UNIT_SQUARE, (2, 2))
        m = locate_cell(part, (0.1, 0.1))
        assert np.allclose(part.cell(m).base_corner, (0.0, 0.0))

    def test_shared_corner_goes_to_upper_cell(self):
        part = partition_domain(UNIT_SQUARE, (2, 2))
        m = locate_cell(part, (0.5, 0.5))
        assert np.allclose(part.cell(m).base_corner, (0.5, 0.5))

    def test_upper_boundary_clamps_to_last_cell(self):
        part = partition_domain(UNIT_SQUARE, (2, 2))
        m = locate_cell(part, (1.0, 1.0))
        assert np.allclose(part.cell(m).base_corner, (0.5, 0.5))

    def test_outside_raises(self):
        part = partition_domain(UNIT_SQUARE, (2, 2))
        with pytest.raises(OutOfDomainError):
            locate_cell(part, (1.2, 0.5))

    def test_face_continuity_of_weights(self):
        # interpolating from either side of a shared face gives the same
        # corner weights on the shared corners, so the tie rule is moot
        part = partition_domain(UNIT_SQUARE, (2, 2))
        left, right = part.cell(0), part.cell(2)
        x = (0.5, 0.2)
        wl = interpolation_weights(left, x)
        wr = interpolation_weights(right, x)
        probs = {}
        for cell, cw in ((left, wl), (right, wr)):
            for g, corner in enumerate(cell.corners()):
                key = tuple(np.round(corner, 12))
                probs.setdefault(key, []).append(cw.weights[g])
        for key, vals in probs.items():
            if len(vals) == 2:
                assert vals[0] == pytest.approx(vals[1], abs=1e-12)
            else:
                assert vals[0] == pytest.approx(0.0, abs=1e-12)


class TestInterpolationWeights:
    def test_base_corner_indicator(self):
        cell = Cell((0.0, 0.0), (1.0, 1.0))
        cw = interpolation_weights(cell, (0.0, 0.0))
        assert np.allclose(cw.lam, (1.0, 1.0))
        assert cw.weights[0] == pytest.approx(1.0)
        assert cw.weights[1:].sum() == pytest.approx(0.0)

    def test_hand_evaluated_product_weights(self):
        cell = Cell((0.0, 0.0), (1.0, 1.0))
        cw = interpolation_weights(cell, (0.25, 0.5))
        assert np.allclose(cw.lam, (0.75, 0.5))
        by_gamma = {
            tuple(g.astype(int)): w
            for g, w in zip(corner_offsets(2), cw.weights)
        }
        assert by_gamma[(0, 0)] == pytest.approx(0.375)
        assert by_gamma[(1, 0)] == pytest.approx(0.125)
        assert by_gamma[(0, 1)] == pytest.approx(0.375)
        assert by_gamma[(1, 1)] == pytest.approx(0.125)

    def test_center_gives_equal_weights(self):
        for n in (1, 2, 3):
            cell = Cell(np.zeros(n), np.ones(n))
            cw = interpolation_weights(cell, np.full(n, 0.5))
            assert np.allclose(cw.weights, 2.0**-n)

    def test_outside_cell_rejected(self):
        cell = Cell((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            interpolation_weights(cell, (1.5, 0.5))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n),
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
            )
        )
    )
    def test_convex_combination_identity(self, args):
        frac, sides, base = (np.array(v) for v in args)
        cell = Cell(base, sides)
        x = base + frac * sides
        cw = interpolation_weights(cell, x)
        assert cw.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(cw.weights >= 0)
        recon = cw.weights @ cell.corners()
        assert np.allclose(recon, x, atol=1e-12 * (1 + np.abs(x).max()))


class TestAxisNeighbors:
    def test_single_cell_square_has_four_edges(self):
        part = partition_domain(UNIT_SQUARE, (1, 1))
        assert len(axis_neighbors(part)) == 4

    def test_two_by_two_grid(self):
        part = partition_domain(UNIT_SQUARE, (2, 2))
        assert len(axis_neighbors(part)) == 12

    def test_one_dimensional_chain(self):
        part = partition_domain(((0.0,), (1.0,)), (4,))
        assert len(axis_neighbors(part)) == 4

    @pytest.mark.parametrize("counts", [(1, 1), (2, 3), (4, 2), (2, 2, 2)])
    def test_count_matches_lattice_edge_formula(self, counts):
        n = len(counts)
        bounds = (np.zeros(n), np.ones(n))
        part = partition_domain(bounds, counts)
        expected = sum(
            counts[l] * int(np.prod([c + 1 for j, c in enumerate(counts) if j != l]))
            for l in range(n)
        )
        pairs = axis_neighbors(part)
        assert len(pairs) == expected
        # each unordered pair appears once and differs along exactly one axis
        seen = set()
        for i, j, axis, gap in pairs:
            assert (i, j) not in seen and (j, i) not in seen
            seen.add((i, j))
            diff = part.anchors[j] - part.anchors[i]
            assert gap == pytest.approx(part.deltas[axis])
            assert diff[axis] == pytest.approx(gap)
            mask = np.ones(n, dtype=bool)
            mask[axis] = False
            assert np.allclose(diff[mask], 0.0)
