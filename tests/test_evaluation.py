import json
import math
from dataclasses import replace
from pathlib import Path

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
        for nodes, bad in (([2.5], "2.5 at index [0]"), ([0, 1.5], "1.5 at index [1]"),
                           ([math.nan], "nan at index [0]")):
            with pytest.raises(ValueError) as err:
                LossModel.from_tasks(graph, nodes, [1.0 / len(nodes)] * len(nodes))
            assert str(err.value) == f"task nodes must be whole numbers, got {bad}"
        loss = LossModel.from_tasks(graph, [2.0, np.int64(0)], [0.5, 0.5])
        assert loss.task_nodes == [2, 0]
        assert all(type(t) is int for t in loss.task_nodes)

    @pytest.mark.parametrize("masses, message", [
        ([1.5, -0.5], r"task prior must be finite, non-negative and sum to one, got task "
                      r"masses \[1\.5, -0\.5\]"),
        ([0.5, 0.25, 0.25], r"one task mass per task node required, got task masses of "
                            r"shape \(3,\) for 2 nodes"),
    ], ids=["negative", "count"])
    def test_bad_task_masses_rejected(self, masses, message):
        # Both once passed: a negative mass silently, a wrong count until
        # loss_matrix failed with numpy's shape-mismatch message.
        with pytest.raises(ValueError, match=f"^{message}$"):
            LossModel.from_tasks(_path_graph(), [0, 2], masses)

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
        loss = LossModel.from_matrix(pts, [[1.0], [2.0]])
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
        assert np.array_equal(a.graph.nodes, b.graph.nodes) and a.graph.edges == b.graph.edges
        assert np.array_equal(a.prior.points, b.prior.points)
        assert np.array_equal(a.prior.masses, b.prior.masses)
        assert np.array_equal(a.outputs.points, b.outputs.points)
        assert a.loss.task_nodes == b.loss.task_nodes
        assert np.array_equal(a.loss.task_masses, b.loss.task_masses)
        c = synth_instance(InstanceSpec(), seed=10)
        assert c.graph.edges != a.graph.edges

    def test_grid_graph_counts(self):
        inst = synth_instance(InstanceSpec(graph_size=5), seed=0)
        assert inst.graph.n_nodes == 25
        assert len(inst.graph.edges) == 40  # 2 * 5 * 4 lattice edges

    def test_zero_loss_when_points_share_snap_node(self):
        inst = synth_instance(InstanceSpec(), seed=1)
        y = inst.outputs.points[4]
        node = _nearest_node(inst.graph, y)
        mat = inst.loss.loss_matrix(np.array([y]), inst.outputs)
        assert _nearest_node(inst.graph, y) == node
        assert mat[0, 4] == pytest.approx(0.0, abs=1e-12)

    def test_edge_endpoints_must_be_whole_numbers(self):
        with pytest.raises(ValueError, match="edge endpoints must be whole numbers"):
            RoadGraph([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1.5, 1.0)])
        with pytest.raises(ValueError, match=r"\(u, v, w\) triples"):
            RoadGraph([[0.0, 0.0], [1.0, 0.0]], [(0, 1, 1.0, 2.0)])
        with pytest.raises(ValueError, match="positive and finite"):
            RoadGraph([[0.0, 0.0], [1.0, 0.0]], [(0, 1, math.inf)])
        assert RoadGraph([[0.0, 0.0]], []).edges == []

    def test_bad_endpoint_message_names_only_the_bad_entry(self):
        # grid8's road graph has 7 x 7 nodes and 84 edges; the message once
        # listed every endpoint, 1,187 characters for one bad entry.
        graph = synth_instance(InstanceSpec(graph_size=7), seed=6).graph
        edges = np.array(graph.edges, dtype=float)
        assert edges.shape == (84, 3)
        edges[17, 1] = 1.5
        with pytest.raises(ValueError) as err:
            RoadGraph(graph.nodes, edges)
        message = str(err.value)
        assert message == "edge endpoints must be whole numbers, got 1.5 at index [17, 1]"
        assert len(message) < 200

    def test_instance_bundle_types(self):
        inst = synth_instance(InstanceSpec(), seed=0)
        assert isinstance(inst, Instance)
        assert inst.partition.n_cells == 16
        assert inst.outputs.size == 9


ROOT = Path(__file__).resolve().parent.parent


def _assert_same_instance(back, inst):
    """Every part of ``back`` equals ``inst``'s bit for bit."""
    assert np.array_equal(back.graph.nodes, inst.graph.nodes)
    assert back.graph.edges == inst.graph.edges
    assert np.array_equal(back.prior.points, inst.prior.points)
    assert np.array_equal(back.prior.masses, inst.prior.masses)
    assert np.array_equal(back.outputs.points, inst.outputs.points)
    assert back.outputs.labels == inst.outputs.labels
    assert np.array_equal(back.partition.counts, inst.partition.counts)
    assert np.array_equal(back.partition.bounds, inst.partition.bounds)
    assert back.loss.kind == inst.loss.kind
    if inst.loss.kind == "tasks":
        assert back.loss.task_nodes == inst.loss.task_nodes
        assert np.array_equal(back.loss.task_masses, inst.loss.task_masses)
    assert np.array_equal(back.loss.loss_matrix(back.prior.points, back.outputs),
                          inst.loss.loss_matrix(inst.prior.points, inst.outputs))


def _matrix_instance():
    from anchorpriv.geometry import Partition

    rng = np.random.default_rng(30)
    pts = rng.random((6, 2))
    masses = rng.random(6)
    return Instance(partition=Partition((0.0, 0.0), (1.0, 1.0), (2, 2)),
                    prior=PriorModel(pts, masses / masses.sum()),
                    outputs=OutputDomain(points=rng.random((3, 2))),
                    loss=LossModel.from_matrix(pts, rng.random((6, 3))), graph=_path_graph())


def _edit_manifest(root, edit):
    """Apply ``edit`` to the bundle manifest under ``root`` in place."""
    manifest = json.loads((root / "manifest.json").read_text())
    edit(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))


class TestInstanceBundle:
    @pytest.mark.parametrize("config", ["desk", "grid8"])
    def test_task_instance_round_trip(self, tmp_path, config):
        from anchorpriv.cli import load_config
        from anchorpriv.evaluation import load_instance, save_instance

        run = load_config(ROOT / "perfbench" / "inputs" / f"{config}.yaml")
        inst = synth_instance(run.instance, seed=6)
        save_instance(inst, tmp_path / "bundle")
        assert [p.name for p in (tmp_path / "bundle").iterdir()] == ["manifest.json"]
        _assert_same_instance(load_instance(tmp_path / "bundle"), inst)

    def test_matrix_instance_round_trip(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        inst = _matrix_instance()
        save_instance(inst, tmp_path)
        assert "loss_rows" in json.loads((tmp_path / "manifest.json").read_text())
        _assert_same_instance(load_instance(tmp_path), inst)

    def test_loss_needs_one_column_per_output(self, tmp_path):
        # A 12-column loss matrix for 9 outputs once loaded, and the loss
        # read its first 9 columns.
        from anchorpriv.evaluation import load_instance, save_instance

        inst = synth_instance(InstanceSpec(), seed=0)
        pts = inst.prior.points
        wide = LossModel.from_matrix(pts, np.ones((len(pts), inst.outputs.size + 3)))
        with pytest.raises(ValueError, match="has 12 columns for 9 outputs"):
            wide.matrix_at(pts, inst.outputs)
        save_instance(replace(inst, loss=wide), tmp_path)
        with pytest.raises(ValueError, match="has 12 columns for 9 outputs"):
            load_instance(tmp_path)

    @pytest.mark.parametrize("version, message", [
        (1, "instance file version 1 is not supported; this release reads version 2"),
        (3, "instance file version 3 is not supported"),
        ("2", "instance file version '2' is not supported"),
        (None, "instance lacks field 'version'"),
    ])
    def test_other_versions_are_rejected(self, tmp_path, version, message):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(synth_instance(InstanceSpec(), seed=0), tmp_path)
        _edit_manifest(tmp_path, lambda m: m.pop("version") if version is None
                       else m.update(version=version))
        with pytest.raises(ValueError, match=message):
            load_instance(tmp_path)

    @pytest.mark.parametrize("path", [
        "partition.counts", "graph.nodes", "graph.edges", "prior.points", "prior.masses",
        "tasks.nodes", "tasks.masses",
    ])
    def test_missing_part_is_named(self, tmp_path, path):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(synth_instance(InstanceSpec(), seed=0), tmp_path)
        section, key = path.split(".")
        _edit_manifest(tmp_path, lambda m: m[section].pop(key))
        with pytest.raises(ValueError, match=f"instance manifest lacks field '{path}'"):
            load_instance(tmp_path)

    def test_missing_loss_rows_are_named(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(_matrix_instance(), tmp_path)
        _edit_manifest(tmp_path, lambda m: m.pop("loss_rows"))
        with pytest.raises(ValueError, match="lacks field 'loss_rows'"):
            load_instance(tmp_path)

    @pytest.mark.parametrize("path, value, message", [
        ("graph.nodes", [[0.0, 0.0], [1.0]], "malformed instance manifest field 'graph.nodes'"),
        ("graph.nodes", [[0.0, "a"]], "'graph.nodes' must be a 2-D array of numbers"),
        ("graph.nodes", [0.0, 1.0], "'graph.nodes' must be a 2-D array of numbers"),
        ("graph.edges", {"u": 0}, "'graph.edges' must be a 2-D array of numbers"),
        ("graph.edges", [[0, 1.5, 1.0]], "edge endpoints must be whole numbers"),
        ("graph.edges", [[0, 1, 1.0, 1.0]], r"\(u, v, w\) triples"),
        ("graph.edges", [[0, 99, 1.0]], "references unknown node"),
        ("prior.points", [[0.5, None]], "'prior.points' must be a 2-D array of numbers"),
        ("prior.masses", ["0.5"], "'prior.masses' must be a 1-D array of numbers"),
        ("prior.masses", [1.0, math.nan], "'prior.masses' must hold finite numbers"),
        ("tasks.masses", [math.inf], "'tasks.masses' must hold finite numbers"),
        ("tasks.nodes", [0.5], "task nodes must be whole numbers"),
        ("partition.counts", [4, "4"], "'partition.counts' must be a 1-D array of numbers"),
        ("outputs.points", [[0.5, "0.5"]], "'outputs.points' must be a 2-D array of numbers"),
    ], ids=["ragged", "string", "flat", "object", "half-endpoint", "wide-edge",
            "unknown-node", "null", "quoted", "nan-mass", "inf-task-mass", "half-task",
            "quoted-count", "quoted-output"])
    def test_malformed_part_is_a_value_error(self, tmp_path, path, value, message):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(synth_instance(InstanceSpec(), seed=0), tmp_path)
        section, key = path.split(".")
        _edit_manifest(tmp_path, lambda m: m[section].update({key: value}))
        with pytest.raises(ValueError, match=message):
            load_instance(tmp_path)

    def test_non_finite_loss_is_a_value_error(self, tmp_path):
        from anchorpriv.evaluation import load_instance, save_instance

        with pytest.raises(ValueError, match="losses must be finite"):
            LossModel.from_matrix([[0.0, 0.0]], [[math.nan]])
        save_instance(_matrix_instance(), tmp_path)
        _edit_manifest(tmp_path, lambda m: m["loss_rows"][0].__setitem__(0, math.nan))
        with pytest.raises(ValueError, match="'loss_rows' must hold finite numbers"):
            load_instance(tmp_path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [-m[0], m[1] + 2 * m[0]] + m[2:], "non-negative"),
        (lambda m: m[:-1], "one task mass per task node"),
    ], ids=["negative", "count"])
    def test_bad_task_masses_are_value_errors(self, tmp_path, edit, message):
        from anchorpriv.evaluation import load_instance, save_instance

        save_instance(synth_instance(InstanceSpec(), seed=0), tmp_path)
        _edit_manifest(tmp_path, lambda m: m["tasks"].update(masses=edit(m["tasks"]["masses"])))
        with pytest.raises(ValueError, match=message):
            load_instance(tmp_path)

    def test_non_bundle_dir_rejected(self, tmp_path):
        from anchorpriv.evaluation import load_instance

        (tmp_path / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="not an anchorpriv instance"):
            load_instance(tmp_path)
