"""Every ``BENCH_<n>.json`` at the repository root parses and carries the
fields that let the benchmark trajectory be read across changes: per
workload and end-to-end metric, the parent's and the change's medians, the
parent's interquartile range and the number of pairs in which the change
read lower, or one unpaired value of the change alone."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("setup_s", "wall_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb")
PAIRED = ("parent_median", "change_median", "parent_iqr", "change_lower_pairs")


def test_there_is_a_trajectory():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_fields(path):
    number = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    assert number, path.name
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["pr"] == int(number.group(1))
    assert isinstance(data["claim"], str) and data["claim"]
    assert isinstance(data["transcribed"], bool)
    assert isinstance(data["parent_commit"], str)
    if not data["transcribed"]:
        assert data["run_seconds"] > 0
        assert data["host"]["nproc"] >= 1
        assert len(data["host"]["loadavg"]) == 3
    assert data["workloads"]
    for name, workload in data["workloads"].items():
        pairs = workload["pairs"]
        assert isinstance(pairs, int) and pairs >= 0, name
        if not data["transcribed"]:
            assert len(workload["seeds"]) == max(pairs, 1), name
            assert set(METRICS) <= set(workload["metrics"]), name
        for metric, entry in workload["metrics"].items():
            assert isinstance(entry["unit"], str), (name, metric)
            if pairs:
                assert all(isinstance(entry[k], (int, float)) for k in PAIRED), (name, metric)
                assert entry["parent_iqr"] >= 0 and 0 <= entry["change_lower_pairs"] <= pairs, (name, metric)
            else:
                assert isinstance(entry["change"], (int, float)), (name, metric)
