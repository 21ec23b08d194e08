"""Utility-loss models and synthetic benchmark instances.

Provides weighted road graphs with exact single-source shortest paths,
task-based pointwise losses (absolute shortest-path difference aggregated
over a task prior), discrete priors over the domain, the expected loss of
any mechanism (evaluated at every prior point at once through its
``log_probs``), and a deterministic generator for desk-scale synthetic
instances. Instances round-trip through a bundle directory: a JSON
manifest naming the parts, the graph as plain text, and the prior (and
matrix losses) as CSV.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import formats
from .apo import OutputDomain
from .errors import ConfigError
from .geometry import Partition, as_point, as_whole_numbers, nearest

__all__ = [
    "RoadGraph",
    "shortest_paths",
    "task_loss",
    "PriorModel",
    "LossModel",
    "expected_loss",
    "InstanceSpec",
    "Instance",
    "synth_instance",
    "save_instance",
    "load_instance",
]


class RoadGraph:
    """Undirected weighted graph with 2-D node coordinates.

    Node ids are dense 0..V-1; edge weights are positive lengths.
    """

    def __init__(self, nodes, edges):
        self.nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        self.edges = [(int(u), int(v), float(w)) for u, v, w in edges]
        v_count = self.nodes.shape[0]
        for u, v, w in self.edges:
            if not (0 <= u < v_count and 0 <= v < v_count):
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if not w > 0:
                raise ValueError("edge weights must be positive")
        self._adj = [[] for _ in range(v_count)]
        for u, v, w in self.edges:
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, u: int):
        return self._adj[u]

    def to_text(self) -> str:
        """Plain text format: first line "V E", then one "u v w" line per edge."""
        lines = [f"{self.n_nodes} {self.n_edges}"]
        for x, y in self.nodes:
            lines.append(f"n {formats.float_text(x)} {formats.float_text(y)}")
        for u, v, w in self.edges:
            lines.append(f"{u} {v} {formats.float_text(w)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RoadGraph":
        lines = [ln for ln in text.strip().splitlines() if ln]
        nodes, edges = [], []
        try:
            v_count, e_count = (int(tok) for tok in lines[0].split())
            for ln in lines[1:]:
                toks = ln.split()
                if toks[0] == "n":
                    nodes.append((float(toks[1]), float(toks[2])))
                else:
                    edges.append((int(toks[0]), int(toks[1]), float(toks[2])))
        except IndexError as exc:
            raise ValueError(f"graph text has a missing field: {exc}") from exc
        if len(nodes) != v_count or len(edges) != e_count:
            raise ValueError("graph header does not match body")
        return cls(np.asarray(nodes), edges)


def shortest_paths(graph: RoadGraph, source: int) -> np.ndarray:
    """Exact single-source shortest-path lengths (Dijkstra).

    Unreachable nodes get +inf.
    """
    if not 0 <= source < graph.n_nodes:
        raise ValueError(f"invalid source node {source}")
    dist = np.full(graph.n_nodes, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in graph.neighbors(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def task_loss(x, y, task_nodes, task_masses, graph: RoadGraph, dist_table=None) -> float:
    """Prior-weighted absolute difference of shortest-path lengths.

    ``x`` and ``y`` snap to their nearest graph nodes (Euclidean, the lowest
    id on a tie). A task unreachable from both points contributes zero;
    reachable from exactly one side the instance is malformed and raises.
    """
    task_nodes = [int(t) for t in task_nodes]
    masses = np.asarray(task_masses, dtype=float)
    if len(task_nodes) == 0:
        raise ValueError("task set must be non-empty")
    if dist_table is None:
        dist_table = np.stack([shortest_paths(graph, t) for t in task_nodes])
    xi, yi = nearest(graph.nodes, np.stack([as_point(x), as_point(y)])).tolist()
    total = 0.0
    for t in range(len(task_nodes)):
        dx, dy = dist_table[t, xi], dist_table[t, yi]
        finite_x, finite_y = math.isfinite(dx), math.isfinite(dy)
        if not finite_x and not finite_y:
            continue
        if finite_x != finite_y:
            raise ValueError("task reachable from one endpoint only: malformed instance")
        total += masses[t] * abs(dx - dy)
    return total


class PriorModel:
    """Discrete prior: weighted sample points covering the domain."""

    def __init__(self, points, masses):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.masses = np.asarray(masses, dtype=float)
        if self.masses.shape[0] != self.points.shape[0]:
            raise ValueError("one mass per sample point required")
        if not np.all(np.isfinite(self.masses)) or np.any(self.masses < 0):
            raise ValueError("masses must be finite and non-negative")
        if abs(self.masses.sum() - 1.0) > 1e-12:
            raise ValueError("masses must sum to one")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @classmethod
    def _weighted(cls, points, weight_fn) -> "PriorModel":
        """Prior on ``points`` with masses ``weight_fn(point)``, normalized (uniform if None)."""
        if weight_fn is None:
            masses = np.ones(points.shape[0])
        else:
            masses = np.array([weight_fn(p) for p in points], dtype=float)
        return cls(points, masses / masses.sum())

    @classmethod
    def cell_lattice(cls, partition: Partition, per_cell: int = 3, weight_fn=None) -> "PriorModel":
        """Centered per-cell sample lattice (per_cell^N interior points per cell).

        ``weight_fn`` maps a point to an unnormalized mass; defaults to
        uniform. Offsets are cell-interior ((i + 1/2) / per_cell), so each
        sample belongs unambiguously to its cell.
        """
        if per_cell < 1:
            raise ValueError("per_cell must be >= 1")
        n = partition.n_dims
        offs = (np.arange(per_cell) + 0.5) / per_cell
        local = np.stack(
            [g.ravel() for g in np.meshgrid(*([offs] * n), indexing="ij")], axis=1
        )
        points = (partition.cell_lower[:, None, :] + local * partition.deltas).reshape(-1, n)
        return cls._weighted(points, weight_fn)

    @classmethod
    def on_anchors(cls, partition: Partition, weight_fn=None) -> "PriorModel":
        """Prior supported exactly on the partition's anchor lattice."""
        return cls._weighted(partition.anchors.copy(), weight_fn)


# Distinct (points, outputs) pairs whose loss rows one LossModel keeps.
MATRIX_MEMO_SIZE = 4


class LossModel:
    """Pointwise utility loss L(x, y_k), matrix-backed or task-based."""

    def __init__(self, kind, matrix=None, points=None, graph=None,
                 task_nodes=None, task_masses=None, dist_table=None):
        self.kind = kind
        self._matrix = matrix
        self._points = points
        self.graph = graph
        self.task_nodes = task_nodes
        self.task_masses = task_masses
        self._dist_table = dist_table
        self._memo = {}

    @classmethod
    def from_matrix(cls, points, matrix) -> "LossModel":
        """Explicit loss rows for a fixed set of sample points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.shape[0] != points.shape[0]:
            raise ValueError("one loss row per sample point required")
        if not np.all(np.isfinite(matrix)) or np.any(matrix < 0):
            raise ValueError("losses must be finite and non-negative")
        return cls("matrix", matrix=matrix, points=points)

    @classmethod
    def from_tasks(cls, graph: RoadGraph, task_nodes, task_masses) -> "LossModel":
        """Task-based loss over a road graph; shortest paths precomputed once."""
        task_nodes = as_whole_numbers(task_nodes, "task nodes").tolist()
        masses = np.asarray(task_masses, dtype=float)
        if len(task_nodes) == 0:
            raise ValueError("task set must be non-empty")
        if not np.all(np.isfinite(masses)) or abs(masses.sum() - 1.0) > 1e-12:
            raise ValueError("task prior must be finite and sum to one")
        table = np.stack([shortest_paths(graph, t) for t in task_nodes])
        return cls(
            "tasks", graph=graph, task_nodes=task_nodes,
            task_masses=masses, dist_table=table,
        )

    def matrix_at(self, points, outputs: OutputDomain) -> np.ndarray:
        """:meth:`loss_matrix`, computed once per distinct (points, outputs).

        One command asks for the same rows again and again (every method
        and budget against one prior), so the result is kept, read-only,
        keyed by the contents of both point sets; the oldest of more than
        MATRIX_MEMO_SIZE entries is dropped.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        key = (points.shape, points.tobytes(), outputs.points.shape, outputs.points.tobytes())
        mat = self._memo.get(key)
        if mat is None:
            mat = np.asarray(self.loss_matrix(points, outputs), dtype=float)
            mat.flags.writeable = False
            if len(self._memo) >= MATRIX_MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = mat
        return mat

    def loss_matrix(self, points, outputs: OutputDomain) -> np.ndarray:
        """Loss rows for ``points`` against every output candidate."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "matrix":
            if self._matrix.shape[1] < outputs.size:
                raise ValueError("stored loss matrix has too few output columns")
            if points.shape != self._points.shape or not np.array_equal(points, self._points):
                raise ValueError("matrix-backed loss only defined at its stored points")
            return self._matrix[:, : outputs.size]
        x_nodes = nearest(self.graph.nodes, points)
        y_nodes = nearest(self.graph.nodes, outputs.points)
        dx = self._dist_table[:, x_nodes]  # (T, n)
        dy = self._dist_table[:, y_nodes]  # (T, K)
        finite_x, finite_y = np.isfinite(dx), np.isfinite(dy)
        both = finite_x[:, :, None] & finite_y[:, None, :]
        either = finite_x[:, :, None] | finite_y[:, None, :]
        if np.any(both != either):
            raise ValueError("task reachable from one endpoint only: malformed instance")
        gap = np.where(both, np.abs(dx[:, :, None] - dy[:, None, :]), 0.0)
        return np.tensordot(self.task_masses, gap, axes=1)


def expected_loss(mech, prior: PriorModel, loss: LossModel) -> float:
    """Prior-weighted expected pointwise loss of a mechanism.

    Evaluates the mechanism at every prior sample point in one
    ``mech.log_probs`` call, so interpolated, closed-form and external
    mechanisms evaluate identically.
    """
    loss_mat = loss.matrix_at(prior.points, mech.outputs)
    z = np.exp(mech.log_probs(prior.points))
    return float(prior.masses @ np.sum(z * loss_mat, axis=1))


# Prior hotspot amplitudes are drawn uniformly from [1, 1 + HOTSPOT_AMP).
HOTSPOT_AMP = 6.0
# Exponent on the prior weight of a graph node when drawing task nodes.
TASK_CONCENTRATION = 2.5


@dataclass(frozen=True)
class InstanceSpec:
    """Sizes and knobs of a synthetic desk-scale instance.

    The default box is 2 x 2 domain units (think km), so budgets around
    0.2..1.6 per unit keep every mechanism in the moderately concentrated
    regime where optimized tables pay off.

    These defaults are the command line's too: every field is a config
    key (``lower``, ``upper`` and ``grid`` in section ``domain``, the rest
    in ``instance``), read with the field's type.
    """

    lower: tuple[float, ...] = (0.0, 0.0)
    upper: tuple[float, ...] = (2.0, 2.0)
    grid: tuple[int, ...] = (4, 4)
    outputs: tuple[int, ...] = (3, 3)
    graph_size: int = 7
    samples_per_cell: int = 3
    n_tasks: int = 10
    n_hotspots: int = 3
    weight_jitter: float = 1.0
    prior_on_anchors: bool = False

    def __post_init__(self):
        # Each field against the least value synth_instance accepts; the
        # messages name the config key. The road graph is planar, so the
        # domain has two axes.
        per_axis = (("domain.lower", self.lower), ("domain.upper", self.upper),
                    ("domain.grid", self.grid), ("instance.outputs", self.outputs))
        for key, values in per_axis:
            if len(values) != 2:
                raise ConfigError(f"{key} must have 2 entries (one per axis), got {list(values)}")
        for key, values in per_axis[:2]:
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{key} must be finite, got {list(values)}")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ConfigError(
                f"domain.upper {list(self.upper)} must exceed domain.lower "
                f"{list(self.lower)} on every axis"
            )
        for key, values in per_axis[2:]:
            if min(values) < 1:
                raise ConfigError(f"{key} must be >= 1 on every axis, got {list(values)}")
        for key, value, least in (
            ("instance.graph_size", self.graph_size, 1),
            ("instance.samples_per_cell", self.samples_per_cell, 1),
            ("instance.n_tasks", self.n_tasks, 1),
            ("instance.n_hotspots", self.n_hotspots, 0),
        ):
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        # An edge's weight is its length times 1 + jitter * u, u in [0, 1).
        if not -1.0 <= self.weight_jitter < math.inf:
            raise ConfigError(
                f"instance.weight_jitter must be finite and >= -1, got {self.weight_jitter}"
            )


@dataclass(frozen=True)
class Instance:
    partition: Partition
    prior: PriorModel
    outputs: OutputDomain
    loss: LossModel
    graph: RoadGraph
    spec: InstanceSpec = field(compare=False, default=None)
    # Results derived from the instance while one command runs (surrogate
    # coefficients, solved anchor tables), so that no method or budget
    # computes them twice, and the last LP solution of each program kind,
    # which starts the next budget's solve. Never copied by dataclasses.replace.
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _grid_graph(lower, upper, size: int, jitter: float, rng) -> RoadGraph:
    """size x size lattice graph with length-proportional jittered weights."""
    xs = np.linspace(lower[0], upper[0], size)
    ys = np.linspace(lower[1], upper[1], size)
    nodes = np.array([(x, y) for x in xs for y in ys])
    edges = []
    for i in range(size):
        for j in range(size):
            u = i * size + j
            if j + 1 < size:
                v = u + 1
                length = float(np.linalg.norm(nodes[u] - nodes[v]))
                edges.append((u, v, length * (1.0 + jitter * rng.random())))
            if i + 1 < size:
                v = u + size
                length = float(np.linalg.norm(nodes[u] - nodes[v]))
                edges.append((u, v, length * (1.0 + jitter * rng.random())))
    return RoadGraph(nodes, edges)


def synth_instance(spec: InstanceSpec = InstanceSpec(), seed: int = 0) -> Instance:
    """Deterministic synthetic instance: partition, prior, outputs, loss, graph.

    The prior is a per-cell lattice with smooth hotspot weighting; outputs
    sit at the cell centers of a coarser sub-lattice; the loss is
    task-based over a jittered grid road graph with tasks drawn from the
    graph nodes.
    """
    rng = np.random.default_rng(seed)
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    partition = Partition(lower, upper, spec.grid)

    extent = upper - lower
    centers = lower + rng.random((spec.n_hotspots, lower.size)) * extent
    scale = 0.25 * float(extent.min())
    amps = 1.0 + rng.random(spec.n_hotspots) * HOTSPOT_AMP

    def weight(pt):
        bumps = np.exp(-np.sum((centers - pt) ** 2, axis=1) / (2 * scale**2))
        return 1.0 + float(amps @ bumps)

    if spec.prior_on_anchors:
        prior = PriorModel.on_anchors(partition, weight_fn=weight)
    else:
        prior = PriorModel.cell_lattice(
            partition, per_cell=spec.samples_per_cell, weight_fn=weight
        )

    out_part = Partition(lower, upper, spec.outputs)
    outputs = OutputDomain(points=out_part.cell_lower + 0.5 * out_part.deltas)

    graph = _grid_graph(lower, upper, spec.graph_size, spec.weight_jitter, rng)
    node_weights = np.array([weight(p) for p in graph.nodes])
    node_weights = node_weights**TASK_CONCENTRATION
    node_weights = node_weights / node_weights.sum()
    task_nodes = rng.choice(
        graph.n_nodes, size=min(spec.n_tasks, graph.n_nodes),
        replace=False, p=node_weights,
    )
    raw = rng.random(len(task_nodes)) + 0.25
    loss = LossModel.from_tasks(graph, task_nodes, raw / raw.sum())
    return Instance(
        partition=partition, prior=prior, outputs=outputs,
        loss=loss, graph=graph, spec=spec,
    )


def save_instance(instance: Instance, directory):
    """Write an instance bundle: manifest.json naming the parts.

    The graph lands in graph.txt, the prior in prior.csv (columns
    x0..x{N-1},mass); task-based losses embed their node/mass lists in the
    manifest while matrix losses go to loss.csv (columns y0..y{K-1}, one
    row per prior point).
    """
    root = Path(directory)
    prior = instance.prior
    manifest = {
        "format": "anchorpriv-instance",
        "version": 1,
        "partition": formats.partition_block(instance.partition),
        "outputs": formats.outputs_block(instance.outputs),
        "graph": "graph.txt",
        "prior": "prior.csv",
    }
    formats.write_text(root / "graph.txt", instance.graph.to_text())
    formats.write_text(root / "prior.csv", formats.csv_text(
        [f"x{l}" for l in range(prior.points.shape[1])] + ["mass"],
        np.column_stack([prior.points, prior.masses]),
    ))
    if instance.loss.kind == "tasks":
        manifest["tasks"] = {
            "nodes": [int(t) for t in instance.loss.task_nodes],
            "masses": [float(m) for m in instance.loss.task_masses],
        }
    else:
        matrix = instance.loss._matrix
        manifest["loss"] = "loss.csv"
        formats.write_text(root / "loss.csv", formats.csv_text(
            [f"y{k}" for k in range(matrix.shape[1])], matrix))
    formats.write_json(root / "manifest.json", manifest)


def load_instance(directory) -> Instance:
    """Load a bundle written by :func:`save_instance`.

    A missing manifest field, or a malformed partition, outputs block,
    graph or CSV part, raises ValueError.
    """
    root = Path(directory)
    manifest = formats.read_json(root / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("format") != "anchorpriv-instance":
        raise ValueError(f"{root} does not hold an instance bundle")
    what = "instance manifest"
    part = formats.read_partition(manifest, what)
    outputs = formats.read_outputs(manifest, what)
    graph = RoadGraph.from_text((root / formats.field(manifest, "graph", what)).read_text())
    values = formats.read_float_csv(root / formats.field(manifest, "prior", what))
    prior = PriorModel(values[:, :-1], values[:, -1])
    if "tasks" in manifest:
        loss = LossModel.from_tasks(
            graph, formats.field(manifest, "tasks.nodes", what),
            formats.field(manifest, "tasks.masses", what),
        )
    else:
        loss = LossModel.from_matrix(prior.points, formats.read_float_csv(
            root / formats.field(manifest, "loss", what)))
    return Instance(
        partition=part, prior=prior, outputs=outputs, loss=loss, graph=graph
    )
