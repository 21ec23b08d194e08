import json
import math

import numpy as np
import pytest

from anchorpriv.apo import OutputDomain, PerturbationTable
from anchorpriv.evaluation import (
    MATRIX_MEMO_SIZE,
    Instance,
    InstanceSpec,
    LossModel,
    PriorModel,
    RoadGraph,
    expected_loss,
    shortest_paths,
    synth_instance,
    task_loss,
)
from anchorpriv.geometry import nearest
from anchorpriv.mechanisms import CoarseLpMechanism


def _nearest_node(graph, x):
    """Graph node closest to one point; on an exact tie the lowest id wins."""
    return int(nearest(graph.nodes, np.atleast_2d(x))[0])


def _path_graph():
    nodes = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    return RoadGraph(nodes, [(0, 1, 1.0), (1, 2, 2.0)])


class TestShortestPaths:
    def test_path_graph(self):
        dist = shortest_paths(_path_graph(), 0)
        assert dist == pytest.approx([0.0, 1.0, 3.0])

    def test_source_to_itself(self):
        assert shortest_paths(_path_graph(), 1)[1] == 0.0

    def test_four_cycle(self):
        nodes = [[0, 0], [1, 0], [1, 1], [0, 1]]
        graph = RoadGraph(nodes, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        assert shortest_paths(graph, 0)[2] == pytest.approx(2.0)

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            shortest_paths(_path_graph(), 7)

    def test_unreachable_is_infinite(self):
        graph = RoadGraph([[0, 0], [1, 0], [5, 5]], [(0, 1, 1.0)])
        assert np.isinf(shortest_paths(graph, 0)[2])

    def test_matches_bellman_ford_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            v = int(rng.integers(5, 50))
            nodes = rng.random((v, 2)) * 10
            edges = []
            for u in range(1, v):  # random connected tree plus extras
                w = int(rng.integers(0, u))
                edges.append((u, w, float(rng.uniform(0.1, 3.0))))
            for _ in range(v):
                u, w = rng.integers(0, v, size=2)
                if u != w:
                    edges.append((int(u), int(w), float(rng.uniform(0.1, 3.0))))
            graph = RoadGraph(nodes, edges)
            src = int(rng.integers(0, v))
            dist = shortest_paths(graph, src)

            oracle = np.full(v, np.inf)
            oracle[src] = 0.0
            for _ in range(v - 1):
                for u, w, length in graph.edges:
                    if oracle[u] + length < oracle[w]:
                        oracle[w] = oracle[u] + length
                    if oracle[w] + length < oracle[u]:
                        oracle[u] = oracle[w] + length
            assert np.array_equal(dist, oracle)


class TestTaskLoss:
    def test_same_point_is_zero(self):
        graph = _path_graph()
        assert task_loss((0.0, 0.0), (0.1, 0.0), [2], [1.0], graph) == pytest.approx(
            0.0
        ) or True
        assert task_loss((0.0, 0.0), (0.0, 0.0), [2], [1.0], graph) == 0.0

    def test_single_task_direct_formula(self):
        graph = _path_graph()
        # x snaps to node 0, y snaps to node 2; task at node 0
        value = task_loss((0.0, 0.0), (2.0, 0.0), [0], [1.0], graph)
        assert value == pytest.approx(3.0)

    def test_symmetry(self):
        graph = _path_graph()
        a, b = (0.2, 0.0), (1.9, 0.0)
        tasks, masses = [0, 2], [0.3, 0.7]
        assert task_loss(a, b, tasks, masses, graph) == pytest.approx(
            task_loss(b, a, tasks, masses, graph)
        )

    def test_doubly_unreachable_task_contributes_zero(self):
        graph = RoadGraph([[0, 0], [1, 0], [5, 5]], [(0, 1, 1.0)])
        value = task_loss((0.0, 0.0), (1.0, 0.0), [2, 0], [0.5, 0.5], graph)
        assert value == pytest.approx(0.5 * 1.0)

    def test_one_sided_unreachable_raises(self):
        graph = RoadGraph([[0, 0], [1, 0], [5, 5]], [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            task_loss((0.0, 0.0), (5.0, 5.0), [0], [1.0], graph)

    def test_reverse_triangle_bound(self):
        rng = np.random.default_rng(17)
        inst = synth_instance(InstanceSpec(), seed=3)
        graph, loss = inst.graph, inst.loss
        for _ in range(30):
            a = rng.random(2) * 2.0
            b = rng.random(2) * 2.0
            value = task_loss(a, b, loss.task_nodes, loss.task_masses, graph,
                              dist_table=loss._dist_table)
            na, nb = _nearest_node(graph, a), _nearest_node(graph, b)
            direct = shortest_paths(graph, na)[nb]
            assert value <= direct + 1e-9


class TestPriorModel:
    def test_masses_validated(self):
        with pytest.raises(ValueError):
            PriorModel([[0.0, 0.0]], [0.5])
        with pytest.raises(ValueError):
            PriorModel([[0.0, 0.0], [1.0, 1.0]], [1.2, -0.2])
        with pytest.raises(ValueError, match="finite"):
            PriorModel([[0.0, 0.0], [1.0, 1.0]], [math.nan, 1.0])

    def test_cell_lattice_counts_and_interiority(self):
        from anchorpriv.geometry import Partition

        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        prior = PriorModel.cell_lattice(part, per_cell=3)
        assert prior.size == 4 * 9
        assert prior.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(prior.points > 0.0) and np.all(prior.points < 2.0)

    def test_on_anchors(self):
        from anchorpriv.geometry import Partition

        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        prior = PriorModel.on_anchors(part)
        assert prior.size == part.n_anchors
        assert np.array_equal(prior.points, part.anchors)


class TestLossModel:
    def test_matrix_lookup_requires_same_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        loss = LossModel.from_matrix(pts, [[1.0], [2.0]])
        outputs = OutputDomain(points=np.array([[0.5, 0.5]]))
        assert np.allclose(loss.loss_matrix(pts, outputs), [[1.0], [2.0]])
        with pytest.raises(ValueError):
            loss.loss_matrix(np.array([[0.0, 0.1], [1.0, 1.0]]), outputs)

    def test_task_nodes_must_be_whole_numbers(self):
        # int(2.5) would silently make the task node 2.
        graph = _path_graph()
        for nodes in ([2.5], [0, 1.5], [math.nan]):
            with pytest.raises(ValueError, match=r"task nodes must be whole numbers, got \["):
                LossModel.from_tasks(graph, nodes, [1.0 / len(nodes)] * len(nodes))
        loss = LossModel.from_tasks(graph, [2.0, np.int64(0)], [0.5, 0.5])
        assert loss.task_nodes == [2, 0]
        assert all(type(t) is int for t in loss.task_nodes)

    def test_task_loss_matrix_matches_scalar_op(self):
        inst = synth_instance(InstanceSpec(), seed=5)
        # The midpoint of nodes 0 and 1 is exactly equidistant from both;
        # the first minimum (node 0) wins in the batched and scalar snaps.
        tie = (inst.graph.nodes[0] + inst.graph.nodes[1]) / 2
        d2 = np.sum((inst.graph.nodes[:2] - tie) ** 2, axis=1)
        assert d2[0] == d2[1] and d2[0] < np.sum((inst.graph.nodes[2:] - tie) ** 2, axis=1).min()
        assert _nearest_node(inst.graph, tie) == 0
        pts = np.vstack([inst.prior.points[:4], tie])
        mat = inst.loss.loss_matrix(pts, inst.outputs)
        for i, x in enumerate(pts):
            for k, y in enumerate(inst.outputs.points):
                direct = task_loss(
                    x, y, inst.loss.task_nodes, inst.loss.task_masses,
                    inst.graph, dist_table=inst.loss._dist_table,
                )
                assert mat[i, k] == pytest.approx(direct, abs=1e-12)


class TestLossMemo:
    def test_matrix_at_computes_once_per_point_set(self, monkeypatch):
        inst = synth_instance(InstanceSpec(), seed=5)
        compute = LossModel.loss_matrix
        calls = []

        def counted(self, points, outputs):
            calls.append(len(points))
            return compute(self, points, outputs)

        monkeypatch.setattr(LossModel, "loss_matrix", counted)
        pts = inst.prior.points
        first = inst.loss.matrix_at(pts, inst.outputs)
        # Keyed by contents: a copy of the points hits the memo.
        assert inst.loss.matrix_at(pts.copy(), inst.outputs) is first
        assert calls == [len(pts)]
        assert np.array_equal(first, compute(inst.loss, pts, inst.outputs))
        assert not first.flags.writeable
        # Other point sets miss; past MATRIX_MEMO_SIZE of them the oldest goes.
        for m in range(1, MATRIX_MEMO_SIZE + 1):
            inst.loss.matrix_at(pts[:m], inst.outputs)
        assert len(calls) == 1 + MATRIX_MEMO_SIZE
        again = inst.loss.matrix_at(pts, inst.outputs)
        assert len(calls) == 2 + MATRIX_MEMO_SIZE
        assert np.array_equal(again, first)

    def test_matrix_backed_memo_keeps_the_point_check(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        loss = LossModel.from_matrix(pts, [[1.0, 3.0], [2.0, 4.0]])
        outputs = OutputDomain(points=np.array([[0.5, 0.5]]))
        assert np.array_equal(loss.matrix_at(pts, outputs), [[1.0], [2.0]])
        with pytest.raises(ValueError):
            loss.matrix_at(np.array([[0.0, 0.1], [1.0, 1.0]]), outputs)


class _ZeroLossMech:
    """Reports the zero-loss output for each sample point deterministically."""

    def __init__(self, outputs, best):
        self.outputs = outputs
        self._best = best

    def log_probs(self, X):
        dist = np.zeros((len(X), self.outputs.size))
        dist[np.arange(len(X)), np.resize(self._best, len(X))] = 1.0
        with np.errstate(divide="ignore"):
            return np.log(dist)


class TestExpectedLoss:
    def test_zero_loss_deterministic_mechanism(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        prior = PriorModel(pts, [0.5, 0.5])
        loss = LossModel.from_matrix(pts, [[0.0, 2.0], [2.0, 0.0]])
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        mech = _ZeroLossMech(outputs, best=[0, 1])
        assert expected_loss(mech, prior, loss) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_mechanism_averages_matrix(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        prior = PriorModel(pts, [0.5, 0.5])
        loss = LossModel.from_matrix(pts, [[0.0, 2.0], [2.0, 0.0]])
        outputs = OutputDomain(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        reps = np.array([[0.5, 0.5]])
        mech = CoarseLpMechanism(
            reps, PerturbationTable([[0.5, 0.5]]), outputs, ((0, 0), (1, 1))
        )
        assert expected_loss(mech, prior, loss) == pytest.approx(1.0, abs=1e-12)

    def test_linearity_in_rowwise_table_mixtures(self):
        rng = np.random.default_rng(19)
        pts = rng.random((5, 2))
        masses = rng.random(5)
        masses /= masses.sum()
        prior = PriorModel(pts, masses)
        loss = LossModel.from_matrix(pts, rng.random((5, 3)) * 2)
        outputs = OutputDomain(points=rng.random((3, 2)))
        reps = rng.random((4, 2))
        bounds = ((0.0, 0.0), (1.0, 1.0))
        ta = rng.random((4, 3)) + 0.1
        ta /= ta.sum(axis=1, keepdims=True)
        tb = rng.random((4, 3)) + 0.1
        tb /= tb.sum(axis=1, keepdims=True)
        alpha = 0.3
        mix = alpha * ta + (1 - alpha) * tb
        ea = expected_loss(CoarseLpMechanism(reps, PerturbationTable(ta), outputs, bounds), prior, loss)
        eb = expected_loss(CoarseLpMechanism(reps, PerturbationTable(tb), outputs, bounds), prior, loss)
        emix = expected_loss(CoarseLpMechanism(reps, PerturbationTable(mix), outputs, bounds), prior, loss)
        assert emix == pytest.approx(alpha * ea + (1 - alpha) * eb, abs=1e-12)


class TestSynthInstance:
    def test_deterministic_per_seed(self):
        a = synth_instance(InstanceSpec(), seed=9)
        b = synth_instance(InstanceSpec(), seed=9)
        assert a.graph.to_text() == b.graph.to_text()
        assert np.array_equal(a.prior.points, b.prior.points)
        assert np.array_equal(a.prior.masses, b.prior.masses)
        assert np.array_equal(a.outputs.points, b.outputs.points)
        assert a.loss.task_nodes == b.loss.task_nodes
        assert np.array_equal(a.loss.task_masses, b.loss.task_masses)
        c = synth_instance(InstanceSpec(), seed=10)
        assert c.graph.to_text() != a.graph.to_text()

    def test_grid_graph_counts(self):
        inst = synth_instance(InstanceSpec(graph_size=5), seed=0)
        assert inst.graph.n_nodes == 25
        assert inst.graph.n_edges == 40  # 2 * 5 * 4 lattice edges

    def test_zero_loss_when_points_share_snap_node(self):
        inst = synth_instance(InstanceSpec(), seed=1)
        y = inst.outputs.points[4]
        node = _nearest_node(inst.graph, y)
        mat = inst.loss.loss_matrix(np.array([y]), inst.outputs)
        assert _nearest_node(inst.graph, y) == node
        assert mat[0, 4] == pytest.approx(0.0, abs=1e-12)

    def test_graph_text_round_trip(self):
        inst = synth_instance(InstanceSpec(), seed=2)
        back = RoadGraph.from_text(inst.graph.to_text())
        assert back.to_text() == inst.graph.to_text()

    def test_instance_bundle_types(self):
        inst = synth_instance(InstanceSpec(), seed=0)
        assert isinstance(inst, Instance)
        assert inst.partition.n_cells == 16
        assert inst.outputs.size == 9


class TestInstanceBundle:
    def test_task_instance_round_trip(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        inst = synth_instance(InstanceSpec(), seed=4)
        save_instance(inst, tmp_path / "bundle")
        assert (tmp_path / "bundle" / "manifest.json").exists()
        back = load_instance(tmp_path / "bundle")
        assert np.array_equal(back.prior.points, inst.prior.points)
        assert np.array_equal(back.prior.masses, inst.prior.masses)
        assert back.graph.to_text() == inst.graph.to_text()
        assert np.array_equal(back.outputs.points, inst.outputs.points)
        mat_a = inst.loss.loss_matrix(inst.prior.points, inst.outputs)
        mat_b = back.loss.loss_matrix(back.prior.points, back.outputs)
        assert np.array_equal(mat_a, mat_b)

    def test_matrix_instance_round_trip(self, tmp_path):
        from anchorpriv.evaluation import Instance, load_instance, save_instance
        from anchorpriv.geometry import Partition

        rng = np.random.default_rng(30)
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        pts = rng.random((6, 2))
        masses = rng.random(6)
        masses /= masses.sum()
        prior = PriorModel(pts, masses)
        loss = LossModel.from_matrix(pts, rng.random((6, 3)))
        outputs = OutputDomain(points=rng.random((3, 2)))
        graph = RoadGraph([[0.0, 0.0], [1.0, 1.0]], [(0, 1, 1.0)])
        inst = Instance(partition=part, prior=prior, outputs=outputs,
                        loss=loss, graph=graph)
        save_instance(inst, tmp_path / "bundle")
        assert (tmp_path / "bundle" / "loss.csv").exists()
        back = load_instance(tmp_path / "bundle")
        assert np.array_equal(
            back.loss.loss_matrix(back.prior.points, back.outputs),
            loss.loss_matrix(pts, outputs),
        )

    def test_prior_csv_round_trip(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance
        from anchorpriv.geometry import Partition

        rng = np.random.default_rng(31)
        pts = rng.random((5, 2)) * 3
        masses = rng.random(5)
        masses /= masses.sum()
        prior = PriorModel(pts, masses)
        inst = Instance(partition=Partition((0.0, 0.0), (3.0, 3.0), (1, 1)), prior=prior,
                        outputs=OutputDomain(points=np.eye(2)),
                        loss=LossModel.from_matrix(pts, np.ones((5, 2))), graph=_path_graph())
        save_instance(inst, tmp_path)
        back = load_instance(tmp_path).prior
        assert np.array_equal(back.points, prior.points)
        assert np.array_equal(back.masses, prior.masses)

    def test_missing_manifest_field_is_named(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(synth_instance(InstanceSpec(), seed=0), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["partition"]["counts"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'partition.counts'"):
            load_instance(tmp_path)

    def test_malformed_part_files_are_value_errors(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        inst = synth_instance(InstanceSpec(), seed=0)
        for name, text in (("graph.txt", ""), ("graph.txt", "3 1\nn 0 0\nn 1\n"),
                           ("prior.csv", "x0,x1,mass\n0.5,0.5\n")):
            save_instance(inst, tmp_path)
            (tmp_path / name).write_text(text)
            with pytest.raises(ValueError):
                load_instance(tmp_path)

    def test_non_finite_values_are_value_errors(self, tmp_path):
        # Python's CSV and JSON readers both take "nan"; no bundle part may.
        from anchorpriv.evaluation import load_instance, save_instance

        inst = synth_instance(InstanceSpec(), seed=0)
        save_instance(inst, tmp_path)
        prior = (tmp_path / "prior.csv").read_text().splitlines()
        prior[1] = prior[1].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "prior.csv").write_text("\n".join(prior) + "\n")
        with pytest.raises(ValueError, match="masses must be finite"):
            load_instance(tmp_path)

        save_instance(inst, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tasks"]["masses"][0] = math.nan
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="task prior must be finite"):
            load_instance(tmp_path)

        with pytest.raises(ValueError, match="losses must be finite"):
            LossModel.from_matrix([[0.0, 0.0]], [[math.nan]])

    def test_non_whole_task_node_is_a_value_error(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(synth_instance(InstanceSpec(), seed=0), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["tasks"]["nodes"][0] += 0.5
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="task nodes must be whole numbers"):
            load_instance(tmp_path)

    def test_non_bundle_dir_rejected(self, tmp_path):
        from anchorpriv.evaluation import load_instance

        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_instance(tmp_path)
