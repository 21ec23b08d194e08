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
