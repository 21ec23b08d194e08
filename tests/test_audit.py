import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpriv import audit, formats
from anchorpriv.apo import OutputDomain, PerturbationTable
from anchorpriv.audit import ppr_histogram, violation_ratio
from anchorpriv.geometry import Partition, lp_distance_matrix
from anchorpriv.interpolation import PROB_FLOOR, Mechanism
from anchorpriv.mechanisms import CoarseLpMechanism, ExponentialMechanism, RemappedMechanism


def _two_anchor_mech(rows):
    part = Partition((0.0,), (1.0,), (1,))
    outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
    return Mechanism(
        part, PerturbationTable(np.asarray(rows, float)), outputs,
        total_eps=1.0, metric_p=2.0, floor=None,
    )


def _constant_mech():
    return _two_anchor_mech([[0.4, 0.6], [0.4, 0.6]])


def _pair_ppr(mech, x, x2, p=2.0):
    """The audit's worst-output PPR of one pair, through its batched pair pass."""
    points = np.array([x, x2], dtype=float)
    logs = np.ascontiguousarray(audit._floored_logs(mech, points).T)
    dist = lp_distance_matrix(points[:1], points[1:], p)
    return float(audit._block_ppr(logs, 0, dist, np.zeros((1, 1), dtype=bool))[0, 0])


class TestPpr:
    def test_identical_distributions_give_zero(self):
        mech = _constant_mech()
        assert _pair_ppr(mech, (0.1,), (0.9,)) == pytest.approx(0.0, abs=1e-12)

    def test_log_two_at_unit_distance(self):
        # Output 0 halves between the anchors (log 2); output 1 moves less.
        mech = _two_anchor_mech([[0.6, 0.4], [0.3, 0.7]])
        value = _pair_ppr(mech, (0.0,), (1.0,))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_probabilities_floored_to_finite(self):
        outputs = OutputDomain(points=np.array([[0.0], [1.0]]))

        class ZeroMech:
            metric_p = 2.0
            n_outputs = 2

            def log_probs(self, X):
                rows = np.where(X[:, :1] < 0.5, [1.0, 0.0], [0.5, 0.5])
                with np.errstate(divide="ignore"):
                    return np.log(rows)

        value = _pair_ppr(ZeroMech(), (0.1,), (0.9,))
        assert math.isfinite(value)
        assert value > 0


class TestViolationRatio:
    def test_deterministic_per_seed(self):
        mech = _two_anchor_mech([[0.6, 0.4], [0.3, 0.7]])
        r1 = violation_ratio(mech, 0.3, 2.0, sample_count=80, seed=9)
        r2 = violation_ratio(mech, 0.3, 2.0, sample_count=80, seed=9)
        assert r1.to_json_dict() == r2.to_json_dict()
        r3 = violation_ratio(mech, 0.3, 2.0, sample_count=80, seed=10)
        assert r3.max_ppr != r1.max_ppr

    def test_monotone_in_budget(self):
        mech = _two_anchor_mech([[0.6, 0.4], [0.3, 0.7]])
        ratios = [
            violation_ratio(mech, eps, 2.0, sample_count=80, seed=4).violation_ratio
            for eps in (0.1, 0.3, 0.5, 0.8, 1.5)
        ]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_pair_counts(self):
        mech = _constant_mech()
        rep = violation_ratio(mech, 1.0, 2.0, sample_count=40, seed=0)
        assert rep.sampled_points == 40
        assert rep.pair_count == 40 * 39 // 2
        assert rep.pair_output_count == rep.pair_count * 2
        assert rep.violating_pairs == 0
        assert rep.violation_ratio == 0.0

    def test_report_json_fields(self, tmp_path):
        mech = _two_anchor_mech([[0.7, 0.3], [0.2, 0.8]])
        rep = violation_ratio(mech, 0.4, 2.0, sample_count=30, seed=2)
        formats.write_json(tmp_path / "report.json", rep.to_json_dict())
        payload = json.loads((tmp_path / "report.json").read_text())
        for key in (
            "eps", "metric_p", "sampled_points", "pair_count",
            "violation_ratio_percent", "pair_output_violation_ratio_percent",
            "max_ppr", "worst_pairs",
        ):
            assert key in payload
        assert 0.0 <= payload["violation_ratio_percent"] <= 100.0

    def test_closed_form_baseline_accepted(self):
        rng = np.random.default_rng(5)
        outputs = OutputDomain(points=rng.random((4, 2)))
        mech = ExponentialMechanism(outputs, ((0.0, 0.0), (1.0, 1.0)), eps=1.0, p=2.0)
        rep = violation_ratio(mech, 1.0, 2.0, sample_count=60, seed=0)
        assert rep.violating_pairs == 0

    def test_worst_pairs_ties_follow_pair_order(self):
        # One output makes the mechanism constant: every pair's PPR is 0, so
        # the (-ppr, i, j) order lists the first pairs of point 0.
        outputs = OutputDomain(points=np.array([[0.5, 0.5]]))
        mech = ExponentialMechanism(outputs, ((0.0, 0.0), (1.0, 1.0)), eps=1.0, p=2.0)
        rep = violation_ratio(mech, 1.0, 2.0, sample_count=40, seed=0)
        assert rep.worst_pairs == [(0.0, 0, j) for j in range(1, 6)]

    @pytest.mark.parametrize("kind", ["EM", "RMP-EM", "CoarseLP"])
    def test_default_metric_order_is_the_mechanisms_own(self, kind):
        # Every mechanism states its order as ``metric_p``; the audit and
        # the histogram both fall back to it, not to 2.
        rng = np.random.default_rng(5)
        outputs = OutputDomain(points=rng.random((4, 2)))
        box = ((0.0, 0.0), (1.0, 1.0))
        mech = ExponentialMechanism(outputs, box, eps=1.0, p=1.0)
        if kind == "RMP-EM":
            mech = RemappedMechanism(mech, [0, 0, 3, 3])
        elif kind == "CoarseLP":
            reps = np.array([[0.2, 0.3], [0.8, 0.7], [0.3, 0.9]])
            raw = rng.random((3, 4))
            mech = CoarseLpMechanism(reps, PerturbationTable(raw / raw.sum(axis=1, keepdims=True)),
                                     outputs, box, metric_p=1.0)
        implicit = violation_ratio(mech, 0.5, sample_count=60, seed=0)
        explicit = violation_ratio(mech, 0.5, 1.0, sample_count=60, seed=0)
        assert implicit.metric_p == 1.0
        assert implicit.to_json_dict() == explicit.to_json_dict()
        assert implicit.max_ppr != violation_ratio(mech, 0.5, 2.0, sample_count=60, seed=0).max_ppr
        for a, b in zip(ppr_histogram(mech, 0.5, sample_count=30, seed=0),
                        ppr_histogram(mech, 0.5, 1.0, sample_count=30, seed=0)):
            assert np.array_equal(a, b)
        # The worst pair's PPR is its largest floored log-gap per unit of l1
        # distance.
        value, i, j = implicit.worst_pairs[0]
        points = audit._sample_points(mech.bounds, 60, np.random.default_rng(0))
        d1 = float(np.abs(points[i] - points[j]).sum())
        logs = np.maximum(mech.log_probs(points[[i, j]]), math.log(PROB_FLOOR))
        assert value == pytest.approx(float(np.abs(logs[0] - logs[1]).max()) / d1, rel=1e-12)

    def test_fewer_than_two_samples_rejected(self):
        # The CLI checks --samples before this; library callers meet it here.
        mech = _constant_mech()
        for check in (violation_ratio, ppr_histogram):
            with pytest.raises(ValueError, match="^an audit needs at least 2 sample points, "
                                                 "got 1$"):
                check(mech, 1.0, 2.0, sample_count=1)

    def test_unstated_metric_order_is_an_error(self):
        rng = np.random.default_rng(5)
        outputs = OutputDomain(points=rng.random((2, 2)))
        mech = CoarseLpMechanism([[0.5, 0.5]], PerturbationTable([[0.5, 0.5]]), outputs,
                                 ((0.0, 0.0), (1.0, 1.0)))
        for check in (lambda: violation_ratio(mech, 0.5, sample_count=10),
                      lambda: ppr_histogram(mech, 0.5, sample_count=10)):
            with pytest.raises(ValueError, match="CoarseLpMechanism .*metric_p"):
                check()
        assert violation_ratio(mech, 0.5, 2.0, sample_count=10).metric_p == 2.0


def _em_mech():
    outputs = OutputDomain(points=np.random.default_rng(5).random((4, 2)))
    return ExponentialMechanism(outputs, ((0.0, 0.0), (1.0, 1.0)), eps=1.0, p=2.0)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairSample:
    def test_shared_sample_gives_the_fresh_audit(self):
        mech = _em_mech()
        sample = audit.PairSample(mech.bounds, 2.0, 150, 7, keep=True)
        fresh = violation_ratio(mech, 0.3, 2.0, sample_count=150, seed=7).to_json_dict()
        for _ in range(2):  # the first read builds the blocks, the second reuses them
            shared = violation_ratio(mech, 0.3, 2.0, sample_count=150, seed=7, sample=sample)
            assert shared.to_json_dict() == fresh
        blocks = list(sample.blocks())
        assert len(blocks) == 150 // audit.ROW_BLOCK
        assert all(not a.flags.writeable for _, dist, lower in blocks for a in (dist, lower))

    @pytest.mark.parametrize("what, settings", [
        ("bounds", dict(bounds=((0.0, 0.0), (1.0, 2.0)))),
        ("sample count", dict(sample_count=41)),
        ("seed", dict(seed=2)),
        ("metric order p", dict(p=1.0)),
    ])
    def test_sample_for_other_settings_is_rejected(self, what, settings):
        mech = _em_mech()
        made = dict(bounds=mech.bounds, p=2.0, sample_count=40, seed=1) | settings
        sample = audit.PairSample(**made, keep=True)
        with pytest.raises(ValueError, match=f"^the pair sample was drawn for another {what} "
                                             "than this audit's$"):
            violation_ratio(mech, 0.5, 2.0, sample_count=40, seed=1, sample=sample)

    def test_sample_over_the_cap_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(audit, "KEEP_MAX_PAIRS", 40 * 39 // 2 - 1)
        mech = _em_mech()
        sample = audit.PairSample(mech.bounds, 2.0, 40, 1, keep=True)
        first, second = (next(iter(sample.blocks()))[1] for _ in range(2))
        assert first is not second and first.flags.writeable
        assert (violation_ratio(mech, 0.5, 2.0, sample_count=40, seed=1, sample=sample)
                .to_json_dict()
                == violation_ratio(mech, 0.5, 2.0, sample_count=40, seed=1).to_json_dict())
        at_cap = audit.PairSample(mech.bounds, 2.0, 39, 1, keep=True)
        assert next(iter(at_cap.blocks()))[1] is next(iter(at_cap.blocks()))[1]

    def test_fresh_sample_memory_is_linear_in_n(self):
        # 2,000 points make 1,999,000 pairs, 16 MB of distances. Without a
        # kept sample the audit holds one row block's few buffers at a time.
        mech, n = _em_mech(), 2000
        rows = -(-n // (n // audit.ROW_BLOCK))  # the largest block
        peak = _traced_peak(lambda: violation_ratio(mech, 1.0, 2.0, sample_count=n, seed=0))
        assert peak < 5 * rows * n * 8
        # A kept sample holds every distance, so the bound above can tell.
        sample = audit.PairSample(mech.bounds, 2.0, n, 0, keep=True)
        kept = _traced_peak(lambda: violation_ratio(mech, 1.0, 2.0, sample_count=n, seed=0,
                                                    sample=sample))
        assert kept > n * (n - 1) // 2 * 8


class TestHistogram:
    def test_constant_mechanism_mass_in_first_bin(self):
        edges, counts = ppr_histogram(_constant_mech(), 1.0, 2.0, sample_count=40, bins=10, seed=0)
        assert counts[0] == 40 * 39 // 2
        assert counts[1:].sum() == 0

    def test_totals_equal_pair_count(self):
        mech = _two_anchor_mech([[0.7, 0.3], [0.2, 0.8]])
        edges, counts = ppr_histogram(mech, 0.5, 2.0, sample_count=50, bins=12, seed=3)
        assert counts.sum() == 50 * 49 // 2
        assert len(edges) == len(counts) + 1

    def test_csv_layout(self, tmp_path):
        # The rows the audit command writes to ppr_histogram.csv.
        mech = _two_anchor_mech([[0.7, 0.3], [0.2, 0.8]])
        edges, counts = ppr_histogram(mech, 0.5, 2.0, sample_count=30, bins=8, seed=3)
        text = formats.csv_text(("bin_lo", "bin_hi", "count"),
                                zip(edges[:-1], edges[1:], counts))
        lines = text.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 9
        assert all(ln.split(",")[2].isdigit() for ln in lines[1:])
        formats.write_text(tmp_path / "h.csv", text)
        back = formats.read_float_csv(tmp_path / "h.csv")
        assert np.array_equal(back[:, 0], edges[:-1]) and np.array_equal(back[:, 1], edges[1:])
        assert np.array_equal(back[:, 2], counts)


def _ppr(x, x2, k, mech, p):
    """Log-probability gap of output k per unit of lp distance, for one pair."""
    logs = np.maximum(mech.log_probs(np.stack([x, x2])), math.log(PROB_FLOOR))
    d = float(lp_distance_matrix(x[None], x2[None], p)[0, 0])
    return abs(float(logs[0, k] - logs[1, k])) / d


def _reference(mech, eps, p, n, seed, top_k, bins):
    """Brute-force audit: every pair and output, one at a time."""
    points = audit._sample_points(mech.bounds, n, np.random.default_rng(seed))
    worst, over = [], 0
    for i in range(n):
        for j in range(i + 1, n):
            per_output = [_ppr(points[i], points[j], k, mech, p)
                          for k in range(mech.n_outputs)]
            over += sum(v > eps for v in per_output)
            worst.append((max(per_output), i, j))
    values = np.array([v for v, _, _ in worst])
    upper = max(2.0 * eps, float(values.max())) or 1.0
    counts, edges = np.histogram(values, bins=bins, range=(0.0, upper))
    return {
        "violating_pairs": int(np.count_nonzero(values > eps)),
        "violating_pair_outputs": over,
        "max_ppr": max(0.0, float(values.max())),
        "worst_pairs": sorted(worst, key=lambda t: (-t[0], t[1], t[2]))[:top_k],
    }, edges, counts


@st.composite
def _mechanisms(draw, p):
    """A 2-D mechanism of metric order ``p``; constant ones make every PPR tie."""
    kind = draw(st.sampled_from(["table", "constant", "repeated rows", "exponential"]))
    n_out = draw(st.integers(1, 4))
    bounds = ((0.0, 0.0), (1.0, 1.0))
    if kind == "exponential":
        centers = np.linspace(0.1, 0.9, n_out)
        outputs = OutputDomain(points=np.stack([centers, centers[::-1]], axis=1))
        return ExponentialMechanism(outputs, bounds, eps=draw(st.floats(0.1, 4.0)), p=p)
    part = Partition(*bounds, (2, 2))
    weights = st.floats(0.05, 1.0)
    n_rows = {"table": part.n_anchors, "repeated rows": 2, "constant": 1}[kind]
    rows = np.array(draw(st.lists(st.lists(weights, min_size=n_out, max_size=n_out),
                                  min_size=n_rows, max_size=n_rows)))
    rows = rows[np.arange(part.n_anchors) % n_rows]
    outputs = OutputDomain(points=np.linspace(0.0, 1.0, 2 * n_out).reshape(n_out, 2))
    table = PerturbationTable(rows / rows.sum(axis=1, keepdims=True))
    return Mechanism(part, table, outputs, total_eps=1.0, metric_p=p)


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), p=st.sampled_from([1.0, 2.0, 3.5, math.inf]),
           n=st.integers(2, 12), seed=st.integers(0, 2**16), eps=st.floats(0.05, 3.0),
           top_k=st.integers(0, 8), block=st.sampled_from([2, 3, 5, audit.ROW_BLOCK]))
    def test_block_passes_match_per_pair_reference(self, data, p, n, seed, eps, top_k, block):
        mech = data.draw(_mechanisms(p))
        want, edges, counts = _reference(mech, eps, p, n, seed, top_k, bins=7)
        # Small row blocks split even 12 points into several blocks.
        with mock.patch.object(audit, "ROW_BLOCK", block):
            rep = violation_ratio(mech, eps, p, sample_count=n, seed=seed, top_k=top_k)
            got = {key: getattr(rep, key) for key in want}
            assert got == want
            got_edges, got_counts = ppr_histogram(mech, eps, p, sample_count=n, bins=7,
                                                  seed=seed)
            assert np.array_equal(got_edges, edges)
            assert np.array_equal(got_counts, counts)
