"""Spans and exact call counts, taken from outside ``trisect``.

Spans: :class:`SpanTracer` swaps functions in the ``trisect`` module
namespaces for thin wrappers, and puts the originals back afterwards.  It
wraps

* every reference one ``trisect`` module holds to a function of another
  (plus the ``IntMatrix`` constructor), so each call that crosses a module
  boundary is a span of the callee's module (its layer);
* the public functions named in :data:`NAMED` in their own module too, so
  internal repeats of, say, ``k_triple`` inside ``homology`` are spans.

Each span records (name, start, end, parent span, item id) into flat
arrays kept in memory; :meth:`SpanTracer.dump` writes them out when the run
ends.  A layer's self time is the time in its spans minus the time in
their child spans.  The wrappers cost a few hundred nanoseconds per call,
and that cost lands in the caller's self time, not the callee's: the leaf
layers (``words``, ``intmatrix``) call no other layer, so their self times
carry no wrapper cost of their children.

Counts: :func:`count_calls` runs a callable under ``cProfile`` (the
standard library's profiler hook) and keeps only functions defined in
``trisect``'s source files.  Counts are exact and repeat between runs
with the same seed; the profiler's timings are not used.
"""

from __future__ import annotations

import cProfile
import gzip
import json
import pstats
import types
from array import array
from pathlib import Path
from time import perf_counter_ns

MODULES = ("words", "intmatrix", "diagrams", "invariants", "groups", "textio", "cli")

# public functions that get spans even when called from their own module
NAMED = {
    "diagrams": ("cut_system", "handle_slide", "slide_family", "stabilize", "connected_sum"),
    "invariants": (
        "pair_k",
        "k_triple",
        "euler_characteristic",
        "homology",
        "intersection_form",
        "form_invariants",
        "poincare_candidate_check",
    ),
    "groups": (
        "pi1_presentation",
        "abelianize_presentation",
        "tietze_simplify",
        "count_homs",
        "diagram_hom_count",
        "build_cube",
        "verify_cube",
    ),
    "textio": ("parse", "serialize"),
    "cli": ("main",),
}

_COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>", "<lambda>")


class SpanTracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.item_names: list[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self._stack = [-1]
        self._item = -1
        self._patches: list[tuple[dict, str, object]] = []

    def set_item(self, item_id: str) -> None:
        self._item = len(self.item_names)
        self.item_names.append(item_id)

    def _wrap(self, fn, name):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, item, stack = (
            self.span_name, self.start, self.end, self.parent, self.item, self._stack,
        )
        tracer = self

        def span(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            item.append(tracer._item)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        lib = self.lib
        mods = {name: getattr(lib, name) for name in MODULES}
        by_module = {m.__name__: short for short, m in mods.items()}
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, layer):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__name__}")
            return wrappers[id(fn)]

        matrix_cls = lib.intmatrix.IntMatrix
        for short, mod in list(mods.items()) + [("trisect", lib.trisect)]:
            space = vars(mod)
            for key, value in list(space.items()):
                if isinstance(value, types.FunctionType):
                    layer = by_module.get(value.__module__)
                    if layer is None:
                        continue
                    if layer != short or key in NAMED.get(layer, ()):
                        self._patch(space, key, wrapper_for(value, layer))
                elif value is matrix_cls and short not in ("intmatrix", "trisect"):
                    self._patch(space, key, wrapper_for(value, "intmatrix"))

    def _patch(self, space, key, new):
        self._patches.append((space, key, space[key]))
        space[key] = new

    def uninstall(self) -> None:
        for space, key, old in reversed(self._patches):
            space[key] = old
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to aggregate a slice of the trace."""
        return len(self.span_name)

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per layer over spans[lo:hi], in seconds."""
        names, start, end, parent = self.span_name, self.start, self.end, self.parent
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        out: dict[str, float] = {}
        for i in range(lo, hi):
            layer = self.names[names[i]].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end[i] - start[i] - child[i - lo]) / 1e9
        return out

    def outer_time(self, lo: int, hi: int, wanted) -> float:
        """Seconds in spans[lo:hi] named in ``wanted`` that no such span encloses."""
        ids = {self.name_id[n] for n in wanted if n in self.name_id}
        names, start, end, parent = self.span_name, self.start, self.end, self.parent
        total = 0
        for i in range(lo, hi):
            if names[i] not in ids:
                continue
            p = parent[i]
            while p >= lo and names[p] not in ids:
                p = parent[p]
            if p < lo:
                total += end[i] - start[i]
        return total / 1e9

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans, gzipped: a JSON header line, then one
        ``name,start_ns,end_ns,parent,item`` row per span (indices into the
        header's ``names`` and ``items``; parent -1 for a root span)."""
        header = {
            "meta": meta,
            "names": self.names,
            "items": self.item_names,
            "columns": ["name", "start_ns", "end_ns", "parent", "item"],
        }
        rows = zip(self.span_name, self.start, self.end, self.parent, self.item)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(f"{n},{s},{e},{p},{i}\n" for n, s, e, p, i in rows)


def count_calls(lib, fn) -> dict[tuple[str, str], int]:
    """Run ``fn()`` under cProfile; calls per (module, function) inside trisect."""
    src = Path(lib.trisect.__file__).resolve().parent
    files = {str((src / f"{m}.py").resolve()): m for m in MODULES}
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    counts: dict[tuple[str, str], int] = {}
    for (filename, _, funcname), stat in pstats.Stats(prof).stats.items():
        module = files.get(str(Path(filename).resolve()))
        if module is None or funcname in _COMPREHENSIONS:
            continue
        key = (module, funcname)
        counts[key] = counts.get(key, 0) + stat[1]  # total calls, recursive ones included
    return counts
