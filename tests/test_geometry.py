import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpriv.errors import OutOfDomainError
from anchorpriv.geometry import (
    Partition,
    axis_neighbors,
    corner_offsets,
    corner_weights,
    locate_cells,
    lp_distance,
    lp_distance_matrix,
)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 1.0))


def _cell_weights(base, sides, x):
    """Corner weights of one point in the one-cell partition from ``base`` by ``sides``."""
    base = np.asarray(base, dtype=float)
    part = Partition(base, base + np.asarray(sides, dtype=float), np.ones(base.size))
    return part, corner_weights(part, np.atleast_2d(x), np.zeros(1, dtype=int))[0]


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

    @pytest.mark.parametrize("n_dims", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_matrix_matches_three_dimensional_form(self, n_dims, p):
        # Reference: the (n, m, N) difference array reduced over its last axis.
        rng = np.random.default_rng(17)
        a = rng.normal(size=(40, n_dims)) * 3.0
        b = rng.normal(size=(70, n_dims))
        diff = np.abs(a[:, None, :] - b[None, :, :])
        if math.isinf(p):
            ref = diff.max(axis=2)
        else:
            ref = np.sum(diff**p, axis=2) ** (1.0 / p)
        got = lp_distance_matrix(a, b, p)
        assert got.shape == (40, 70)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(*[
            st.lists(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n), min_size=1,
                     max_size=6)
            for _ in range(2)
        ])),
        st.sampled_from([1, 1.5, 2, 3, math.inf]),
    )
    def test_matrix_is_bitwise_the_axis_by_axis_reduction(self, points, p):
        # Reference: the former formula, one (n, m) difference per axis,
        # folded with functools.reduce and raised to the power.
        a, b = (np.array(v) for v in points)
        diffs = [np.abs(a[:, axis, None] - b[None, :, axis]) for axis in range(a.shape[1])]
        if math.isinf(p):
            ref = functools.reduce(np.maximum, diffs)
        else:
            ref = functools.reduce(np.add, (d**p for d in diffs)) ** (1.0 / p)
        assert lp_distance_matrix(a, b, p).tobytes() == ref.tobytes()


class TestPartitionDomain:
    def test_single_cell_unit_square(self):
        part = Partition(*UNIT_SQUARE, (1, 1))
        assert part.n_cells == 1
        assert part.n_anchors == 4

    def test_two_by_two_lattice_count(self):
        part = Partition(*UNIT_SQUARE, (2, 2))
        assert part.n_cells == 4
        assert part.n_anchors == 9  # (2+1)^2 lattice

    def test_one_dimensional(self):
        part = Partition((0.0,), (1.0,), (4,))
        assert part.n_cells == 4
        assert part.n_anchors == 5

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            Partition(*UNIT_SQUARE, (0, 2))

    @pytest.mark.parametrize("counts", [(8.9, 8), (2, 2.5), (math.nan, 2), (math.inf, 2)])
    def test_non_whole_counts_rejected(self, counts):
        # Truncating 8.9 to 8 would silently build another partition. The
        # message names the bad entry and its index only.
        at = 1 if counts[0] == 2 else 0
        with pytest.raises(ValueError) as err:
            Partition(*UNIT_SQUARE, counts)
        assert str(err.value) == (
            f"cell counts must be whole numbers, got {float(counts[at])!r} at index [{at}]")

    @pytest.mark.parametrize("lower, upper, counts, message", [
        (["0.0", "0.0"], ["2", "2"], ["2", 2], "lower corner must be numbers, not strings"),
        ((0.0, 0.0), ("2", 2.0), (2, 2), "upper corner must be numbers, not strings"),
        ((0.0, 0.0), (2.0, 2.0), ["2", 2], "cell counts must be numbers, not strings"),
        ((0.0, 0.0), (2.0, 2.0), [b"2", b"2"], "cell counts must be numbers, not bytes"),
        ((0.0, None), (2.0, 2.0), (2, 2), "lower corner must be numbers, not objects"),
    ])
    def test_quoted_numbers_rejected(self, lower, upper, counts, message):
        # np.asarray(..., dtype=float) would read "2" as 2.0.
        with pytest.raises(ValueError) as err:
            Partition(lower, upper, counts)
        assert str(err.value) == message

    def test_quoted_points_rejected(self):
        with pytest.raises(ValueError, match="^points must be numbers, not strings$"):
            lp_distance_matrix([["0.5", "1"]], [[0.0, 0.0]], 2.0)
        with pytest.raises(ValueError, match="^point must be numbers, not strings$"):
            lp_distance(["0.5", "1"], [0.0, 0.0], 2.0)

    def test_whole_float_counts_accepted(self):
        part = Partition(*UNIT_SQUARE, (2.0, 3))
        assert part.counts.tolist() == [2, 3]
        assert part.counts.dtype == np.asarray([2, 3]).dtype

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.0), (1.0, 0.0), (1, 1))

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            Partition((0.0, 0.0), (1.0,), (1, 1))

    def test_cells_tile_bounds(self):
        part = Partition(*UNIT_SQUARE, (3, 2))
        total = part.n_cells * np.prod(part.deltas)
        assert total == pytest.approx(1.0, abs=1e-12)
        # distinct cells, each inside the bounds
        assert np.unique(part.cell_lower, axis=0).shape[0] == part.n_cells
        assert np.all(part.cell_lower >= part.lower)
        assert np.all(part.cell_lower + part.deltas <= part.upper + 1e-12)
        # every cell corner appears in the anchor lattice exactly once
        corners = (part.cell_lower[:, None, :] + part.offsets * part.deltas).reshape(-1, 2)
        uniq = np.unique(np.round(corners, 12), axis=0)
        assert uniq.shape[0] == part.n_anchors


class TestLocateCell:
    def test_interior_point(self):
        part = Partition(*UNIT_SQUARE, (2, 2))
        m = locate_cells(part, [(0.1, 0.1)])[0]
        assert np.allclose(part.cell_lower[m], (0.0, 0.0))

    def test_shared_corner_goes_to_upper_cell(self):
        part = Partition(*UNIT_SQUARE, (2, 2))
        m = locate_cells(part, [(0.5, 0.5)])[0]
        assert np.allclose(part.cell_lower[m], (0.5, 0.5))

    def test_upper_boundary_clamps_to_last_cell(self):
        part = Partition(*UNIT_SQUARE, (2, 2))
        m = locate_cells(part, [(1.0, 1.0)])[0]
        assert np.allclose(part.cell_lower[m], (0.5, 0.5))

    def test_outside_raises(self):
        part = Partition(*UNIT_SQUARE, (2, 2))
        with pytest.raises(OutOfDomainError):
            locate_cells(part, [(1.2, 0.5)])

    def test_face_continuity_of_weights(self):
        # interpolating from either side of a shared face gives the same
        # corner weights on the shared corners, so the tie rule is moot
        part = Partition(*UNIT_SQUARE, (2, 2))
        x = (0.5, 0.2)
        cells = (0, 2)  # the cells left and right of the face x0 = 0.5
        both = corner_weights(part, np.array([x, x]), np.array(cells))
        probs = {}
        for m, weights in zip(cells, both):
            for g, corner in enumerate(part.cell_lower[m] + part.offsets * part.deltas):
                key = tuple(np.round(corner, 12))
                probs.setdefault(key, []).append(weights[g])
        for key, vals in probs.items():
            if len(vals) == 2:
                assert vals[0] == pytest.approx(vals[1], abs=1e-12)
            else:
                assert vals[0] == pytest.approx(0.0, abs=1e-12)


class TestInterpolationWeights:
    def test_base_corner_indicator(self):
        _, weights = _cell_weights((0.0, 0.0), (1.0, 1.0), (0.0, 0.0))
        assert weights[0] == pytest.approx(1.0)
        assert weights[1:].sum() == pytest.approx(0.0)

    def test_hand_evaluated_product_weights(self):
        _, weights = _cell_weights((0.0, 0.0), (1.0, 1.0), (0.25, 0.5))
        by_gamma = {
            tuple(g.astype(int)): w
            for g, w in zip(corner_offsets(2), weights)
        }
        assert by_gamma[(0, 0)] == pytest.approx(0.375)
        assert by_gamma[(1, 0)] == pytest.approx(0.125)
        assert by_gamma[(0, 1)] == pytest.approx(0.375)
        assert by_gamma[(1, 1)] == pytest.approx(0.125)

    def test_center_gives_equal_weights(self):
        for n in (1, 2, 3):
            _, weights = _cell_weights(np.zeros(n), np.ones(n), np.full(n, 0.5))
            assert np.allclose(weights, 2.0**-n)

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
        x = base + frac * sides
        part, weights = _cell_weights(base, sides, x)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights >= 0)
        recon = weights @ (part.cell_lower[0] + part.offsets * part.deltas)
        assert np.allclose(recon, x, atol=1e-12 * (1 + np.abs(x).max()))


class TestAxisNeighbors:
    def test_single_cell_square_has_four_edges(self):
        part = Partition(*UNIT_SQUARE, (1, 1))
        assert axis_neighbors(part)[0].size == 4

    def test_two_by_two_grid(self):
        part = Partition(*UNIT_SQUARE, (2, 2))
        assert axis_neighbors(part)[0].size == 12

    def test_one_dimensional_chain(self):
        part = Partition((0.0,), (1.0,), (4,))
        assert axis_neighbors(part)[0].size == 4

    def test_built_once_per_partition_and_read_only(self):
        part = Partition(*UNIT_SQUARE, (3, 2))
        once, again = axis_neighbors(part), axis_neighbors(part)
        assert all(a is b for a, b in zip(once, again, strict=True))
        for array in once:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        other = axis_neighbors(Partition(*UNIT_SQUARE, (3, 2)))
        assert all(np.array_equal(a, b) and a is not b for a, b in zip(once, other))

    @pytest.mark.parametrize("counts", [(1, 1), (2, 3), (4, 2), (2, 2, 2)])
    def test_count_matches_lattice_edge_formula(self, counts):
        n = len(counts)
        bounds = (np.zeros(n), np.ones(n))
        part = Partition(*bounds, counts)
        expected = sum(
            counts[l] * int(np.prod([c + 1 for j, c in enumerate(counts) if j != l]))
            for l in range(n)
        )
        first, second, axes = axis_neighbors(part)
        assert first.size == second.size == axes.size == expected
        # each unordered pair appears once and differs along exactly one axis
        seen = set()
        for i, j, axis in zip(first.tolist(), second.tolist(), axes.tolist()):
            assert (i, j) not in seen and (j, i) not in seen
            seen.add((i, j))
            diff = part.anchors[j] - part.anchors[i]
            assert diff[axis] == pytest.approx(part.deltas[axis])
            mask = np.ones(n, dtype=bool)
            mask[axis] = False
            assert np.allclose(diff[mask], 0.0)
