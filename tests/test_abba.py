"""tools/abba.py's summary of A B B A benchmark runs, on canned records."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "abba", Path(__file__).resolve().parent.parent / "tools" / "abba.py"
)
abba = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abba)

BETTER = {"requests_per_s": "higher", "peak_rss_mib": "lower"}


def record(rate: float, rss: float) -> dict:
    """One run of `perfbench/run.py --workload all`, two workloads."""
    metrics = {
        "requests_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
    }
    run = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return {"offline-tables": run, "root-deep": run}


def test_summary_counts_pairs_each_way_and_ties_for_neither():
    # pairs in run order: (100, 120), (110, 110), (90, 130), (105, 100)
    parent = [record(100, 20), record(110, 21), record(90, 22), record(105, 20)]
    change = [record(120, 21), record(110, 21), record(130, 20), record(100, 19)]
    got = abba.summarize(parent, change, BETTER)
    assert list(got) == ["offline-tables", "root-deep"]
    rate = got["offline-tables"]["requests_per_s"]
    assert rate["change_better_in_pairs"] == "2 of 4"
    # inclusive quartiles of 90, 100, 105, 110
    assert rate["parent"] == {"median": 102.5, "q1": 97.5, "q3": 106.25}
    assert rate["change"] == {"median": 115.0, "q1": 107.5, "q3": 122.5}
    assert rate["median_change_over_parent"] == pytest.approx(115 / 102.5)
    ratios = [120 / 100, 110 / 110, 130 / 90, 100 / 105]
    assert rate["median_change_over_parent_per_pair"] == statistics.median(ratios)
    # lower is better: 21 > 20 loses, 21 = 21 ties, 20 < 22 and 19 < 20 win
    rss = got["root-deep"]["peak_rss_mib"]
    assert rss["change_better_in_pairs"] == "2 of 4"
    assert list(rss) == [
        "parent",
        "change",
        "change_better_in_pairs",
        "median_change_over_parent",
        "median_change_over_parent_per_pair",
    ]


def test_order_is_a_b_b_a():
    assert abba.ORDER == ("parent", "change", "change", "parent")
