#!/usr/bin/env python3
"""The trisect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` and the CLI is run as ``python -m trisect`` with ``src`` on the
path.  Nothing is installed and nothing outside the checkout is touched.

One run sets the workload up several times (fresh import of ``trisect``,
seeded input generation, one warm-up item) and reports the median set-up
time.  It then starts passes over the workload's fixed item set until
``--seconds`` have gone by and there are enough samples for the tail
percentile, checking every output against the oracles once each pass has
been timed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans and exact call counts (see ``tracing.py``).
Lines before the last one are a readable report with the run's metadata;
the last line is one JSON object.  A record of the run, with its failures,
goes to ``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, cli_env  # noqa: E402

SETUP_REPEATS = 5  # set-ups per run at least,
SETUP_SECONDS = 3.0  # and until this long has gone by: short set-ups repeat more
CLI_PROBES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer time metric -> spans whose outermost occurrences it sums
SPAN_TIMES = {
    "invariants.form_s": ("invariants.intersection_form", "invariants.form_invariants"),
    "invariants.homology_s": ("invariants.homology",),
    "invariants.k_triple_s": ("invariants.k_triple",),
    "diagrams.moves_s": (
        "diagrams.slide_family",
        "diagrams.handle_slide",
        "diagrams.stabilize",
        "diagrams.connected_sum",
    ),
    "textio.roundtrip_s": ("textio.serialize", "textio.parse"),
    "groups.verify_cube_s": ("groups.verify_cube",),
    "groups.tietze_s": ("groups.tietze_simplify",),
    "groups.count_homs_s": ("groups.count_homs",),
}
SELF_TIMES = {"intmatrix.self_s": "intmatrix", "words.self_s": "words"}


def _calls(counts, module, match):
    return sum(n for (m, f), n in counts.items() if m == module and match(f))


COUNTS = {
    # every private Smith-form kernel entry, whatever it returns
    "intmatrix.snf_calls": lambda c: _calls(c, "intmatrix", lambda f: f.startswith("_smith")),
    "intmatrix.matrix_builds": lambda c: _calls(c, "intmatrix", lambda f: f == "__init__"),
    "intmatrix.rational_solves": lambda c: _calls(c, "intmatrix", lambda f: "solve" in f),
    "intmatrix.lattice_basis_calls": lambda c: _calls(c, "intmatrix", lambda f: f == "lattice_basis"),
    "invariants.k_triple_calls": lambda c: _calls(c, "invariants", lambda f: f == "k_triple"),
    "diagrams.cut_system_calls": lambda c: _calls(c, "diagrams", lambda f: f == "cut_system"),
    "words.calls": lambda c: _calls(c, "words", lambda f: True),
    "groups.normalize_calls": lambda c: _calls(c, "groups", lambda f: f == "_normalize_relators"),
    "groups.shorten_calls": lambda c: _calls(c, "groups", lambda f: f == "_shorten"),
}

PER_LAYER_UNITS = {
    "intmatrix.snf_calls": "count",
    "intmatrix.matrix_builds": "count",
    "intmatrix.rational_solves": "count",
    "intmatrix.self_s": "s",
    "intmatrix.lattice_basis_calls": "count",
    "invariants.form_s": "s",
    "invariants.k_triple_calls": "count",
    "invariants.homology_s": "s",
    "invariants.k_triple_s": "s",
    "diagrams.moves_s": "s",
    "diagrams.cut_system_calls": "count",
    "textio.roundtrip_s": "s",
    "words.calls": "count",
    "words.self_s": "s",
    "groups.verify_cube_s": "s",
    "groups.tietze_s": "s",
    "groups.normalize_calls": "count",
    "groups.shorten_calls": "count",
    "groups.count_homs_s": "s",
    "groups.faces_verified_frac": "frac",
    "groups.pi1_trivialized_frac": "frac",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.compute_ms": "ms",
    "trace.overhead_frac": "frac",
}


# --- running the program -------------------------------------------------


def import_trisect() -> SimpleNamespace:
    """Import ``trisect`` afresh from ``src/`` and return its modules."""
    for name in [n for n in sys.modules if n == "trisect" or n.startswith("trisect.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"trisect.{m}") for m in tracing.MODULES}
    return SimpleNamespace(trisect=sys.modules["trisect"], **mods)


def set_up(workload, seed, probe, scale=1.0):
    """Import, generate the seeded inputs, run one warm-up item.

    Returns (raw seconds, machine slowdown around it, lib, items)."""
    gc.collect()  # free the previous set-up's modules and inputs first
    since = probe.mark()
    probe.take(3)
    start = time.perf_counter()
    lib = import_trisect()
    items = workload.generate(lib, seed, scale)
    workload.run(lib, items[0])
    duration = time.perf_counter() - start
    probe.take(3)
    return duration, probe.slowdown(since), lib, items


@dataclass
class Crash:
    """An item whose call raised; the traceback is kept for the record."""

    text: str


@dataclass
class Pass:
    wall: float  # raw seconds, probes excluded
    latencies: list  # raw seconds per item
    outputs: list
    slowdown: float  # machine slowdown measured during the pass

    @property
    def calibrated_wall(self) -> float:
        return self.wall / self.slowdown

    @property
    def calibrated_latencies(self) -> list:
        return [x / self.slowdown for x in self.latencies]


def run_pass(workload, lib, items, probe, tracer=None) -> Pass:
    outputs, latencies = [], []
    since = probe.mark()
    probe.take()
    probe_cost = probe.cost
    started = time.perf_counter()
    for item in items:
        probe.maybe()
        if tracer is not None:
            tracer.set_item(item.id)
        t0 = time.perf_counter()
        try:
            out = workload.run(lib, item)
        except Exception:  # an item's failure must not end the run
            out = Crash(traceback.format_exc())
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    wall = time.perf_counter() - started - (probe.cost - probe_cost)
    probe.take()
    return Pass(wall, latencies, outputs, probe.slowdown(since))


def check_pass(workload, items, outputs) -> list[dict]:
    """Failures of one pass, each as {"item", "reason"}."""
    failures = []
    for item, out in zip(items, outputs):
        if isinstance(out, Crash):
            reason = "exception: " + out.text.strip().splitlines()[-1]
            detail = out.text
        else:
            try:
                reason = workload.check(item, out)
            except Exception:
                reason = "output could not be checked"
            detail = None
        if reason:
            failures.append({"item": item.id, "reason": reason[:500], "traceback": detail})
    return failures


TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


def _tail_rank(n, percentile):
    """1-based nearest rank of ``percentile`` among ``n`` samples."""
    return max(1, math.ceil(percentile / 100 * n))


def min_passes(items_per_pass, percentile):
    """Fewest passes that leave ``TAIL_BEYOND`` samples beyond ``percentile``."""
    passes = 1
    while passes * items_per_pass - _tail_rank(passes * items_per_pass, percentile) < TAIL_BEYOND:
        passes += 1
    return passes


def timed_passes(workload, lib, items, seconds, probe):
    """Passes, started until ``seconds`` have gone by and the samples
    suffice for the workload's tail percentile."""
    passes = []
    at_least = min_passes(len(items), workload.TAIL_PERCENTILE)
    started = time.perf_counter()
    while len(passes) < at_least or time.perf_counter() - started < seconds:
        gc.collect()
        passes.append(run_pass(workload, lib, items, probe))
    return passes


def tail(latencies, percentile):
    """(value, percentile) at the workload's tail percentile (nearest rank).

    Each workload fixes its percentile, so the metric stays comparable when
    a faster or slower program fits another number of passes into a run;
    ``timed_passes`` makes enough passes to leave ``TAIL_BEYOND`` samples
    beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = _tail_rank(n, percentile)
    if n - rank < TAIL_BEYOND:
        raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond p{percentile}")
    return ordered[rank - 1], 100.0 * rank / n


# --- metadata --------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "trisect").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# --- the two kinds of run --------------------------------------------------


def _times(setups, passes, percentile):
    """setup_s, wall_s, item_p50_ms, item_tail_ms from setups and passes."""
    latencies = [x for p in passes for x in p[1]]
    tail_value, tail_pct = tail(latencies, percentile)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p[0] for p in passes),
        "item_p50_ms": statistics.median(latencies) * 1000,
        "item_tail_ms": tail_value * 1000,
    }, tail_pct


def measure_end_to_end(workload, seed, seconds, scale=1.0):
    """Times are calibrated to the nominal machine speed (see ``speed.py``);
    the raw ones go into the run's metadata."""
    probe = SpeedProbe()
    setups = []
    started = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
        duration, slowdown, lib, items = set_up(workload, seed, probe, scale)
        setups.append((duration, slowdown))
    passes = timed_passes(workload, lib, items, seconds, probe)
    failures = [f for p in passes for f in check_pass(workload, items, p.outputs)]
    metrics, tail_pct = _times(
        [d / s for d, s in setups],
        [(p.calibrated_wall, p.calibrated_latencies) for p in passes],
        workload.TAIL_PERCENTILE,
    )
    raw, _ = _times(
        [d for d, _ in setups], [(p.wall, p.latencies) for p in passes], workload.TAIL_PERCENTILE
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = sum(len(p.latencies) for p in passes)
    info = {
        "samples": samples,
        "setups": len(setups),
        "items_per_pass": len(items),
        "passes": len(passes),
        "tail_percentile": round(tail_pct, 2),
        "raw": raw,
        "slowdown_setups": [s for _, s in setups],
        "slowdown_passes": [p.slowdown for p in passes],
        "raw_pass_walls_s": [p.wall for p in passes],
    }
    return metrics, END_TO_END_UNITS, samples, failures, info, None


def _probe_ms(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    wall = (time.perf_counter() - t0) * 1000
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def cli_parts(env):
    """Median interpreter start-up and ``import trisect.cli`` time of a child."""
    interp = [_probe_ms([sys.executable, "-c", "pass"], env)[0] for _ in range(CLI_PROBES)]
    code = (
        "import time; t = time.perf_counter(); import trisect.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = [
        float(_probe_ms([sys.executable, "-c", code], env)[1]) * 1000 for _ in range(CLI_PROBES)
    ]
    return statistics.median(interp), statistics.median(imports)


def measure_traced(workload, seed, seconds, scale=1.0):
    """Per-layer metrics: untraced and span-traced passes in turn, then one
    set-up plus one pass under the call counter."""
    probe = SpeedProbe()
    _, _, lib, items = set_up(workload, seed, probe, scale)
    tracer = tracing.SpanTracer(lib)

    tracer.install()
    try:
        lo = tracer.mark()
        tracer.set_item("setup")
        workload.generate(lib, seed, scale)
        setup_span = (lo, tracer.mark())
    finally:
        tracer.uninstall()

    plain, traced, span_ranges = [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        gc.collect()
        plain.append(run_pass(workload, lib, items, probe))
        gc.collect()
        lo = tracer.mark()
        tracer.install()
        try:
            traced.append(run_pass(workload, lib, items, probe, tracer))
        finally:
            tracer.uninstall()
        span_ranges.append((lo, tracer.mark()))

    counted = {}

    def count_once():
        counted["items"] = workload.generate(lib, seed, scale)
        counted["pass"] = run_pass(workload, lib, counted["items"], probe)

    counts = tracing.count_calls(lib, count_once)

    failures = [f for p in plain + traced for f in check_pass(workload, items, p.outputs)]
    failures += check_pass(workload, counted["items"], counted["pass"].outputs)
    attempted = sum(len(p.outputs) for p in plain + traced + [counted["pass"]])

    metrics = {}
    for name, spans in SPAN_TIMES.items():
        metrics[name] = tracer.outer_time(*setup_span, spans) + statistics.median(
            tracer.outer_time(lo, hi, spans) for lo, hi in span_ranges
        )
    setup_self = tracer.self_times(*setup_span)
    pass_self = [tracer.self_times(lo, hi) for lo, hi in span_ranges]
    for name, layer in SELF_TIMES.items():
        metrics[name] = setup_self.get(layer, 0.0) + statistics.median(
            s.get(layer, 0.0) for s in pass_self
        )
    for name, fn in COUNTS.items():
        metrics[name] = fn(counts)

    tallies = {}
    for item, out in zip(counted["items"], counted["pass"].outputs):
        if not isinstance(out, Crash):
            for key, value in workload.outcomes(item, out).items():
                tallies[key] = tallies.get(key, 0) + value
    metrics["groups.faces_verified_frac"] = (
        tallies["faces_verified"] / tallies["faces"] if tallies.get("faces") else 0.0
    )
    metrics["groups.pi1_trivialized_frac"] = (
        tallies["pi1_trivialized"] / tallies["screens"] if tallies.get("screens") else 0.0
    )

    if workload.USES_CLI:
        interp_ms, import_ms = cli_parts(cli_env())
        compute_ms = statistics.median(x for p in plain for x in p.latencies) * 1000
    else:
        interp_ms = import_ms = compute_ms = 0.0
    metrics["cli.interp_ms"] = interp_ms
    metrics["cli.import_ms"] = import_ms
    metrics["cli.compute_ms"] = compute_ms

    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1

    info = {
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "spans": tracer.mark(),
        "tallies": tallies,
        "untraced_walls_s": [p.wall for p in plain],
        "traced_walls_s": [p.wall for p in traced],
        "calls": {f"{m}.{f}": n for (m, f), n in sorted(counts.items())},
    }
    return metrics, PER_LAYER_UNITS, attempted, failures, info, tracer


def measure(workload_name, seed, seconds, trace, scale=1.0):
    workload = WORKLOADS[workload_name]()
    if trace:
        return measure_traced(workload, seed, seconds, scale)
    return measure_end_to_end(workload, seed, seconds, scale)


# --- command line ----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trisect benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "trisect" / "__init__.py").is_file():
        print(f"error: no trisect sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    metrics, units, attempted, failures, info, tracer = measure(
        args.workload, args.seed, args.seconds, args.trace
    )
    meta["loadavg_end"] = list(os.getloadavg())
    meta.update(info)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": metrics, "attempted": attempted, "failures": failures}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.csv.gz", meta)

    for f in failures[:5]:
        print(f"FAILED {f['item']}: {f['reason']}", file=sys.stderr)
    shown = {k: v for k, v in meta.items() if k not in ("calls", "slowdown_passes", "raw_pass_walls_s")}
    print(f"# trisect benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# meta " + json.dumps(shown))
    for name, value in metrics.items():
        print(f"{name:32s} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {len(failures) / attempted:>14.6g} ({len(failures)}/{attempted})")
    if not args.trace:
        print(
            f"# item_tail_ms is p{info['tail_percentile']} of {info['samples']} samples "
            f"({info['passes']} passes of {info['items_per_pass']} items)"
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
