import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


@pytest.fixture(scope="module")
def paired_bench():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_spread(paired_bench):
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    faster = [b - 0.05 for b in base]
    s = paired_bench.summarize(base, faster)
    assert s["wins"] == 10 and s["pairs"] == 10 and s["gain"]
    assert s["base"] == pytest.approx((0.99, 1.0, 1.01))
    # Eight wins of ten, one tie: no gain, however far the medians moved.
    mixed = faster[:8] + [base[8], base[9] + 0.01]
    s = paired_bench.summarize(base, mixed)
    assert s["wins"] == 8 and not s["gain"]
    # Wins in every pair by less than the base's spread: no gain.
    assert not paired_bench.summarize(base, [b - 0.001 for b in base])["gain"]
    # Slower in every pair: no wins.
    assert paired_bench.summarize(faster, base)["wins"] == 0


def test_metrics_worse_beyond_their_bound_are_marked(paired_bench):
    base = [10.0, 10.2, 9.8]
    # Lower is better: 5% worse passes a 0.05 bound, a little more does not.
    assert not paired_bench.worse_beyond_bound(base, [10.5, 10.4, 10.6], "lower", 0.05)
    assert paired_bench.worse_beyond_bound(base, [10.6, 10.51, 10.7], "lower", 0.05)
    assert not paired_bench.worse_beyond_bound(base, [5.0, 5.0, 5.0], "lower", 0.05)
    # Higher is better: a fall counts, a rise never does.
    assert paired_bench.worse_beyond_bound(base, [8.9, 8.8, 9.0], "higher", 0.1)
    assert not paired_bench.worse_beyond_bound(base, [9.1, 9.0, 9.2], "higher", 0.1)
    assert not paired_bench.worse_beyond_bound(base, [20.0, 20.0, 20.0], "higher", 0.1)
    # Equal medians are never worse, whatever the bound.
    assert not paired_bench.worse_beyond_bound(base, list(base), "lower", 0.0)


def test_report_marks_the_metric_past_its_bound(paired_bench, monkeypatch, capsys, tmp_path):
    # Runs faked per side: the change is faster, but its peak memory grew
    # 10%, past BENCHMARK.json's 5% bound, while its set-up time grew
    # within its bound.
    metrics = {"base": dict(wall_s=1.0, setup_s=0.20, peak_rss_mb=100.0, lower_bound=0.4),
               "change": dict(wall_s=0.9, setup_s=0.21, peak_rss_mb=110.0, lower_bound=0.4)}
    monkeypatch.setattr(paired_bench, "export", lambda rev, dest: tmp_path / "base")
    monkeypatch.setattr(paired_bench, "copy_working_tree", lambda dest: tmp_path / "change")
    monkeypatch.setattr(paired_bench, "run_once",
                        lambda tree, workload, seconds: dict(metrics[tree.name]))
    assert paired_bench.main(["--base", "HEAD", "--workload", "compare-desk", "--pairs", "2"]) == 0
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["peak_rss_mb"].endswith("; WORSE by more than its bound 0.05")
    for name in ("setup_s", "lower_bound"):
        assert "WORSE" not in lines[name]
