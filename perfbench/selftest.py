#!/usr/bin/env python3
"""Self-tests of the benchmark: ``python3 perfbench/selftest.py``.

* ``BENCHMARK.json`` names exactly the metrics and workloads ``run.py``
  reports;
* the oracle table is self-consistent;
* a tiny-size smoke run of every workload, untraced and traced, passes
  every check, and ``item_tail_ms`` is taken at the workload's own
  percentile;
* for every oracle, one planted wrong expectation makes ``failed_frac``
  positive, and an item that raises is a failed item, not a crashed run.

Exits 1 on the first failing test.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SCALE = 0.02


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def test_benchmark_json_matches_run():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
        "end_to_end metrics differ from run.END_TO_END_UNITS",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
        "per_layer metrics differ from run.PER_LAYER_UNITS",
    )
    expect(all(w["name"] in WORKLOADS for w in spec["workloads"]), "unknown workload")


def test_oracle_table_is_consistent():
    models = list(oracle.KNOWN.values())
    models.append(oracle.connected_sum(oracle.KNOWN["CP2"], oracle.KNOWN["S1xS3"]))
    models.append(oracle.stabilize(oracle.stabilize(oracle.KNOWN["S2xS2"], "alpha"), "gamma"))
    for m in models:
        # chi = 2 + g - (k_ab + k_bg + k_ga) on every diagram
        expect(m.euler == 2 + m.genus - sum(m.k), f"euler mismatch for {m}")
        expect(abs(m.signature) <= m.b2, f"signature out of range for {m}")
        expect(all(len(e) == m.genus for e in m.exponents), f"exponent rows for {m}")


def test_smoke_every_workload():
    for name in WORKLOADS:
        for trace in (0, 1):
            metrics, units, attempted, failures, info, _ = run.measure(
                name, seed=3, seconds=0.01, trace=trace, scale=SMOKE_SCALE
            )
            expect(not failures, f"{name} trace {trace}: {failures[:2]}")
            expect(attempted >= 1, f"{name} trace {trace}: nothing attempted")
            expect(set(metrics) == set(units), f"{name} trace {trace}: metric names")
            if not trace:
                expect(all(v > 0 for v in metrics.values()), f"{name}: zero metric {metrics}")
                pct = WORKLOADS[name].TAIL_PERCENTILE
                expect(
                    pct <= info["tail_percentile"] < pct + 100 / info["samples"] + 0.01,
                    f"{name}: tail at p{info['tail_percentile']}, not p{pct}",
                )


def test_tail_percentile_is_fixed():
    # full-size item counts per pass -> the passes every run makes at least
    for workload, items, passes in (("ladder-invariants", 19, 3), ("batch-moves", 600, 2), ("cube-groups", 10, 7)):
        pct = WORKLOADS[workload].TAIL_PERCENTILE
        expect(run.min_passes(items, pct) == passes, f"{workload}: {run.min_passes(items, pct)} passes")
        samples = list(range(items * passes))
        value, at = run.tail(samples, pct)
        expect(len(samples) - 1 - value >= run.TAIL_BEYOND and at >= pct, f"{workload}: p{at}")
        try:
            run.tail(samples[:-items], pct)
        except ValueError:
            continue
        raise AssertionError(f"{workload}: tail fell back with too few samples")


def _failures_with(workload_name, plant):
    """Set a small workload up, let ``plant`` spoil its items, run one pass."""
    workload = WORKLOADS[workload_name]()
    probe = run.SpeedProbe()
    _, _, lib, items = run.set_up(workload, 5, probe, SMOKE_SCALE)
    items = plant(items)
    result = run.run_pass(workload, lib, items, probe)
    return run.check_pass(workload, items, result.outputs), len(items)


def _planted(workload_name, plant, marker):
    failures, attempted = _failures_with(workload_name, plant)
    expect(failures, f"{workload_name}: planted error went unnoticed")
    expect(len(failures) / attempted > 0, "failed_frac stayed 0")
    expect(any(marker in f["reason"] for f in failures), f"{workload_name}: {failures[0]['reason']}")


def _first(items, cond, change):
    for i, item in enumerate(items):
        if cond(item):
            return items[:i] + [replace(item, expect=change(item))] + items[i + 1:]
    raise AssertionError("no item to plant on")


def test_planted_ladder_table():
    _planted(
        "ladder-invariants",
        lambda items: _first(items, lambda it: True, lambda it: replace(it.expect, signature=it.expect.signature + 1)),
        "report",
    )


def test_planted_batch_move_invariance():
    _planted(
        "batch-moves",
        lambda items: _first(items, lambda it: True, lambda it: replace(it.expect, b2=it.expect.b2 + 1)),
        "expected",
    )


def test_planted_hom_count():
    _planted(
        "cube-groups",
        lambda items: _first(
            items, lambda it: it.expect.free_rank > 0, lambda it: replace(it.expect, free_rank=it.expect.free_rank + 1)
        ),
        "S3 count",
    )


def test_planted_corrupted_cube():
    saved = oracle.corrupted_cube_failures
    oracle.corrupted_cube_failures = lambda m, sector: ()
    try:
        _planted("cube-groups", lambda items: items, "failed faces")
    finally:
        oracle.corrupted_cube_failures = saved


def test_exception_is_a_failed_item():
    def plant(items):
        d, plan = items[0].args
        bad = replace(items[0], args=(d, (("slide", "alpha", 0, 0, (), 1),)))  # a curve over itself
        return [bad] + items[1:]

    failures, attempted = _failures_with("batch-moves", plant)
    expect(len(failures) == 1 and attempted > 1, f"{failures}")
    expect(failures[0]["reason"].startswith("exception: ValueError"), failures[0]["reason"])


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        try:
            fn()
        except Exception:
            print(f"FAIL {name}")
            traceback.print_exc()
            return 1
        print(f"ok   {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
