"""The three workloads: seeded inputs, the timed call per item, and its check.

Each workload object has

* ``generate(lib, seed, scale)`` -> list of :class:`Item` (set-up: every
  input is made here, from the seed alone);
* ``run(lib, item)`` -> output (the timed part, one item);
* ``check(item, output)`` -> ``None`` or the reason the item failed;
* ``outcomes(item, output)`` -> useful-outcome tallies for the traced run.

``lib`` is the namespace of ``trisect`` modules returned by
``run.import_trisect``; the workloads reach the program only through it.
Expectations come from :mod:`oracle`, never from the code being
measured.  ``scale`` below 1 shrinks the item
set for the self-tests.
"""

from __future__ import annotations

import io
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
from oracle import FAMILIES

ROOT = Path(__file__).resolve().parent.parent

TIETZE_BUDGET = 10_000


@dataclass
class Item:
    id: str
    args: object
    expect: object


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _random_conjugator(lib, rng, genus):
    return tuple(
        rng.choice((1, -1)) * lib.words.token_code(rng.choice("ab"), rng.randint(1, genus))
        for _ in range(rng.randint(0, 2))
    )


def _sum_of(lib, names):
    d, m = None, None
    for name in names:
        piece = lib.diagrams.standard_diagram(name)
        d = piece if d is None else lib.diagrams.connected_sum(d, piece)
        m = oracle.KNOWN[name] if m is None else oracle.connected_sum(m, oracle.KNOWN[name])
    return d, m


def _slide_cycle(lib, d, m, rng, count):
    """``count`` slides along a seeded cycle of handles, with random signs,
    conjugators and families taken in turn.

    Sliding each curve over the next one of a random cyclic order, rather
    than over an arbitrary curve, keeps the entry growth of the homology
    matrices (and so the cost of the invariants) nearly the same for every
    seed, while the diagrams themselves still differ.
    """
    g = d.genus
    order = list(range(g))
    rng.shuffle(order)
    for t in range(count):
        fam = FAMILIES[t % 3]
        i, j = order[t % g], order[(t + 1) % g]
        sign = rng.choice((1, -1))
        conj = _random_conjugator(lib, rng, g)
        d = lib.diagrams.slide_family(d, fam, i, j, conj, sign)
        m = oracle.slide(m, fam, i, j, sign)
    return d, m


def _random_pieces(rng, genus, fixed_s1xs3=0):
    """Library pieces of total genus ``genus``, ``fixed_s1xs3`` of them S1xS3."""
    names = ["S1xS3"] * fixed_s1xs3
    left = genus - fixed_s1xs3
    while left:
        choices = ["CP2", "CP2BAR", "S2xS2"] if left >= 2 else ["CP2", "CP2BAR"]
        name = rng.choice(choices)
        names.append(name)
        left -= oracle.KNOWN[name].genus
    rng.shuffle(names)
    return names


# --- ladder-invariants ---------------------------------------------------


class Ladder:
    """The ``trisect invariants`` report on a genus ladder.

    Items are seeded connected sums of library pieces followed by 3g
    slides.  From genus 8 up the mix of pieces is fixed (g/8 copies of
    S1xS3, g/4 of S2xS2, the rest CP2 or CP2BAR) so that the cost of the
    rungs that dominate the timings depends little on the seed; below that
    the mix is random, so every parity and sign shows up.
    """

    name = "ladder-invariants"
    USES_CLI = True  # items are CLI commands: the traced run times a call's parts
    # (genus, items): the median item is a genus-8 one and the tail one a
    # genus-16 one, each well inside its band of the latency distribution;
    # eight genus-8 and four genus-16 items make both less seed-dependent
    RUNGS = ((2, 2), (4, 3), (8, 8), (16, 4), (24, 1), (32, 1))
    TAIL_PERCENTILE = 80

    def generate(self, lib, seed, scale=1.0):
        rng = _rng(self.name, seed)
        rungs = self.RUNGS if scale >= 1 else ((2, 2), (4, 1))
        items = []
        for genus, count in rungs:
            for n in range(count):
                if genus >= 8:
                    names = ["S1xS3"] * (genus // 8) + ["S2xS2"] * (genus // 4)
                    names += [rng.choice(("CP2", "CP2BAR")) for _ in range(genus - len(names) - genus // 4)]
                    rng.shuffle(names)
                else:
                    names = _random_pieces(rng, genus, fixed_s1xs3=rng.randint(0, 1))
                d, m = _sum_of(lib, names)
                d, m = _slide_cycle(lib, d, m, rng, 3 * genus)
                items.append(Item(f"g{genus}.{n}", lib.textio.serialize(d), m))
        return items

    def run(self, lib, item):
        return run_cli_in_process(lib, ["invariants", "-"], item.args)

    def check(self, item, output):
        code, out, err = output
        if code != 0:
            return f"exit {code}: {err.strip()}"
        expected = oracle.invariants_report(item.expect)
        if out != expected:
            return f"report {out!r} != expected {expected!r}"
        return None

    def outcomes(self, item, output):
        return {}


# --- batch-moves -----------------------------------------------------------


class Batch:
    """Criterion-2-shaped items: random moves on a library diagram, a text
    round trip, then chi, H, the form invariants and the S3 hom count.

    Item n of a base makes 1 + n % 10 moves, about a quarter of them
    stabilizations (more when the genus is below 2, since a slide needs two
    curves).  The counts follow a fixed pattern rather than coin flips: the
    genus an item ends at sets most of its cost, and a fixed pattern keeps
    the pass time nearly the same for every seed.  The seed picks where
    the stabilizations fall, the families, and every slide.
    """

    name = "batch-moves"
    USES_CLI = False
    TAIL_PERCENTILE = 99
    BASES = ("S4", "CP2", "CP2BAR", "S1xS3", "S2xS2", "CP2+CP2BAR")
    PER_BASE = 100
    MAX_MOVES = 10

    def generate(self, lib, seed, scale=1.0):
        rng = _rng(self.name, seed)
        items = []
        for base in self.BASES:
            d, m = _sum_of(lib, base.split("+"))
            for n in range(_scaled(self.PER_BASE, scale)):
                moves = 1 + n % self.MAX_MOVES
                stabs = set(rng.sample(range(moves), moves * (n // self.MAX_MOVES + 1) // 20))
                plan, moved = [], m
                for k in range(moves):
                    fam = rng.choice(FAMILIES)
                    if moved.genus < 2 or k in stabs:
                        plan.append(("stabilize", fam))
                        moved = oracle.stabilize(moved, fam)
                    else:
                        i, j = rng.sample(range(moved.genus), 2)
                        conj = _random_conjugator(lib, rng, moved.genus)
                        sign = rng.choice((1, -1))
                        plan.append(("slide", fam, i, j, conj, sign))
                        moved = oracle.slide(moved, fam, i, j, sign)
                items.append(Item(f"{base}.{n}", (d, tuple(plan)), moved))
        return items

    def run(self, lib, item):
        d, plan = item.args
        for move in plan:
            if move[0] == "stabilize":
                d = lib.diagrams.stabilize(d, move[1])
            else:
                d = lib.diagrams.slide_family(d, *move[1:])
        text = lib.textio.serialize(d)
        d = lib.textio.parse(text)
        round_trip = lib.textio.serialize(d) == text
        inv = lib.invariants
        form = inv.form_invariants(inv.intersection_form(d))
        return (
            d.genus,
            round_trip,
            inv.euler_characteristic(d),
            inv.homology(d),
            (form.rank, form.signature, form.parity),
            lib.groups.diagram_hom_count(d, 3),
        )

    def check(self, item, output):
        m = item.expect
        expected = (
            m.genus,
            True,
            m.euler,
            m.homology(),
            (m.b2, m.signature, m.parity),
            m.hom_count(3),
        )
        if output != expected:
            return f"got {output!r}, expected {expected!r}"
        return None

    def outcomes(self, item, output):
        return {}


# --- cube-groups -----------------------------------------------------------


def corrupt_sector(lib, cube, sector):
    """Replace one sector by <x | x^2>: incoming generators map to x and x
    maps to the identity, so the downstream faces still close up."""
    groups = lib.groups
    vertices = dict(cube.vertices)
    vertices[sector] = groups.Presentation(1, ((1, 1),), names=("x",))
    edges = []
    for e in cube.edges:
        if e.target == sector:
            e = groups.CubeEdge(e.source, e.target, tuple((1,) for _ in e.images))
        elif e.source == sector:
            e = groups.CubeEdge(e.source, e.target, ((),))
        edges.append(e)
    return groups.GroupTrisectionCube(vertices, tuple(edges))


class Cube:
    """Cube verification, homotopy-sphere screening and hom counts.

    The plan mixes connected sums with S1xS3 summands (pi1 free of rank s),
    stabilized-and-slid 4-spheres, and simply connected diagrams whose cube
    gets one corrupted sector.  S5 counts run when s <= 3, which puts the
    largest ones (120**3 assignments) near the default enumeration cap.
    """

    name = "cube-groups"
    USES_CLI = False
    # the ninth of the ten items per pass by cost: an S5 count near the cap
    TAIL_PERCENTILE = 85
    # (kind, genus, S1xS3 summands)
    PLAN = (
        ("sum", 4, 1),
        ("sum", 6, 2),
        ("sum", 8, 3),
        ("sum", 10, 3),
        ("sum", 12, 4),
        ("s4", 4, 0),
        ("s4", 8, 0),
        ("s4", 12, 0),
        ("corrupt-sum", 6, 0),
        ("corrupt-s4", 10, 0),
    )

    def generate(self, lib, seed, scale=1.0):
        rng = _rng(self.name, seed)
        plan = self.PLAN if scale >= 1 else (("sum", 2, 1), ("s4", 2, 0), ("corrupt-sum", 2, 0))
        items = []
        for n, (kind, genus, s) in enumerate(plan):
            if kind.endswith("s4"):
                d, m = _sum_of(lib, ["S4"])
                for _ in range(genus):
                    fam = rng.choice(FAMILIES)
                    d = lib.diagrams.stabilize(d, fam)
                    m = oracle.stabilize(m, fam)
            else:
                d, m = _sum_of(lib, _random_pieces(rng, genus, fixed_s1xs3=s))
            d, m = _slide_cycle(lib, d, m, rng, genus)
            sector = rng.choice(oracle.SECTORS) if kind.startswith("corrupt") else None
            degrees = (3, 5) if m.free_rank <= 3 else (3,)
            items.append(Item(f"{kind}.g{genus}.{n}", (d, sector, degrees), m))
        return items

    def run(self, lib, item):
        d, sector, degrees = item.args
        groups = lib.groups
        cube = groups.build_cube(d)
        if sector is not None:
            cube = corrupt_sector(lib, cube, sector)
        report = groups.verify_cube(cube, TIETZE_BUDGET)
        screen = lib.invariants.poincare_candidate_check(d, TIETZE_BUDGET)
        counts = {n: groups.diagram_hom_count(d, n) for n in degrees}
        return (
            report.ok,
            tuple(f.status for f in report.faces),
            (screen.homology_matches_s4, screen.pi1_trivialized, screen.verdict),
            counts,
        )

    def check(self, item, output):
        ok, statuses, screen, counts = output
        m = item.expect
        sector = item.args[1]
        failed = tuple(i for i, s in enumerate(statuses) if s == "Failed")
        want_failed = () if sector is None else oracle.corrupted_cube_failures(m, sector)
        if failed != want_failed or ok != (sector is None):
            return f"cube ok={ok} failed faces {failed}, expected {want_failed}"
        matches, trivialized, verdict = screen
        if matches != m.homology_matches_s4():
            return f"homology_matches_s4={matches}"
        if trivialized and m.free_rank:
            return "pi1 reported trivial, but it is free of rank %d" % m.free_rank
        want_verdict = (
            "NotHomotopySphere"
            if not matches
            else "TrivializedPi1" if trivialized else "HomologySphereUnresolved"
        )
        if verdict != want_verdict:
            return f"verdict {verdict}, expected {want_verdict}"
        for degree, count in counts.items():
            if count != m.hom_count(degree):
                return f"S{degree} count {count}, expected {m.hom_count(degree)}"
        return None

    def outcomes(self, item, output):
        _, statuses, screen, _ = output
        return {
            "faces_verified": sum(s == "Verified" for s in statuses),
            "faces": len(statuses),
            "pi1_trivialized": int(screen[1]),
            "screens": 1,
        }


# --- CLI helpers -----------------------------------------------------------


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_in_process(lib, argv, stdin_text):
    """``trisect.cli.main`` on ``argv`` with captured streams: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = lib.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Ladder, Batch, Cube)}
