import ast
import contextlib
import hashlib
import io
import operator
import random
import time
import tracemalloc
from collections import Counter
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import trisect.groups as groups
from conftest import FIXTURES, moved_diagrams
from dense_reference import reference_smith
from trisect.diagrams import (
    FAMILY_NAMES,
    CutSystem,
    TrisectionDiagram,
    connected_sum,
    slide_family,
    stabilize,
    standard_diagram,
)
from trisect.groups import (
    CUBE_EDGES,
    CUBE_FACES,
    CUBE_VERTICES,
    CubeEdge,
    CubeReport,
    EdgeCheck,
    EnumerationRefused,
    FaceCheck,
    GroupTrisectionCube,
    MalformedCubeError,
    Presentation,
    _check_edge,
    _curve_relator,
    _lattice,
    _pushout_presentation,
    abelianize_presentation,
    build_cube,
    count_homs,
    diagram_hom_count,
    pi1_presentation,
    presentation,
    reduced_pi1,
    tietze_simplify,
    verify_cube,
)
from trisect import cli
from trisect.intmatrix import IntMatrix, quotient_invariants
from trisect.invariants import (
    DEFAULT_TIETZE_BUDGET,
    VERDICT_TRIVIAL_PI1,
    homology,
    k_triple,
    poincare_candidate_check,
)
from trisect.textio import parse, serialize
from trisect.words import block_index, cyclic_reduce, invert_word


def rel(*texts):
    """Relators over abstract generators written as signed tuples."""
    return [tuple(t) for t in texts]


COMMUTATOR = (1, 2, -1, -2)


LETTERS_TO_8 = st.integers(min_value=1, max_value=8).flatmap(lambda x: st.sampled_from((x, -x)))


def reference_count_homs(p, degree):
    """Hom count by plain product enumeration, with no pruning."""
    perms = list(permutations(range(degree)))
    compose = lambda a, b: tuple(a[b[k]] for k in range(degree))
    invert = lambda a: tuple(sorted(range(degree), key=lambda k: a[k]))
    identity = tuple(range(degree))
    total = 0
    for images in product(perms, repeat=p.num_generators):
        ok = True
        for r in p.relators:
            acc = identity
            for t in r:
                acc = compose(acc, images[t - 1] if t > 0 else invert(images[-t - 1]))
            if acc != identity:
                ok = False
                break
        total += ok
    return total


@st.composite
def free_products(draw):
    """Disjoint blocks of one or two generators with their own relators, and
    up to one generator in no relator, numbered in a shuffled order."""
    sizes = draw(st.lists(st.integers(1, 2), max_size=2))
    n = sum(sizes) + draw(st.integers(0, 1))
    order = draw(st.permutations(range(1, n + 1)))
    relators, start = [], 0
    for size in sizes:
        gens = order[start : start + size]
        start += size
        tokens = st.sampled_from(gens + [-g for g in gens])
        relators += draw(st.lists(st.lists(tokens, min_size=1, max_size=4), min_size=1, max_size=2))
    return presentation(n, relators)


@st.composite
def presentations(draw):
    n = draw(st.integers(0, 5))
    if n == 0:
        return presentation(0, [])
    tokens = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    return presentation(n, draw(st.lists(st.lists(tokens, min_size=1, max_size=8), max_size=6)))


@st.composite
def one_letter_presentations(draw):
    """Presentations where most eliminations start from a one-letter relator:
    a few one-letter relators, and short words that become one-letter
    relators as generators die, so the one-letter closure takes several rounds."""
    n = draw(st.integers(1, 6))
    tokens = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    ones = draw(st.lists(tokens.map(lambda t: [t]), max_size=3))
    short = draw(st.lists(st.lists(tokens, min_size=2, max_size=3), max_size=4))
    longer = draw(st.lists(st.lists(tokens, min_size=1, max_size=8), max_size=2))
    return presentation(n, draw(st.permutations(ones + short + longer)))


@st.composite
def shortening_presentations(draw):
    """Relators that share a long piece: a square c c, and rotated or
    inverted words c c d d.  Each letter occurs at least twice in each
    relator, so no generator can be eliminated at first, and about half of
    the examples take two or more shortening moves."""
    n = draw(st.integers(1, 3))
    tokens = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    c = draw(st.lists(tokens, min_size=2, max_size=5))
    relators = [c + c]
    for d in draw(st.lists(st.lists(tokens, max_size=3), min_size=1, max_size=3)):
        w = c + c + d + d
        s = draw(st.integers(0, len(w) - 1))
        w = w[s:] + w[:s]
        relators.append(list(invert_word(w)) if draw(st.booleans()) else w)
    return presentation(n, draw(st.permutations(relators)))


@st.composite
def shorten_pairs(draw):
    """Cyclically reduced (u, v), where u usually holds more than half of a
    cyclic piece of v or v^-1, so that most pairs take the shortening branch."""
    tokens = st.integers(1, draw(st.integers(1, 3))).flatmap(lambda g: st.sampled_from((g, -g)))
    u = draw(st.lists(tokens, max_size=12))
    v = draw(st.lists(tokens, max_size=10).map(cyclic_reduce).filter(lambda w: len(w) >= 2))
    if draw(st.integers(0, 7)):
        vv = draw(st.sampled_from((v, invert_word(v))))
        s = draw(st.integers(0, len(v) - 1))
        length = draw(st.integers(len(v) // 2 + 1, len(v)))
        pos = draw(st.integers(0, len(u)))
        u[pos:pos] = (vv + vv)[s : s + length]
    return cyclic_reduce(u), v


def reference_shorten(u, v):
    """Shortening by the letter-by-letter scan: every candidate match is
    extended as far as it goes, in the order (v before v^-1, piece start,
    start in u)."""
    nu, nv = len(u), len(v)
    if nu == 0 or nv < 2:
        return None
    du = u + u
    for vv in (v, invert_word(v)):
        dv = vv + vv
        for s in range(nv):
            for start in range(nu):
                length = 0
                cap = min(nv, nu)
                while length < cap and du[start + length] == dv[s + length]:
                    length += 1
                if 2 * length > nv:
                    rest = dv[s + length : s + nv]
                    u_rot = du[start : start + nu]
                    cand = cyclic_reduce(invert_word(rest) + u_rot[length:])
                    if len(cand) < nu:
                        return cand
    return None


def r12_diagram():
    """R12: S4 stabilized 12 times and slid 120 times, all drawn from Random(12).
    Its raw pi1 has total relator length 9,988."""
    rng = random.Random(12)
    d = standard_diagram("S4")
    for _ in range(12):
        d = stabilize(d, rng.choice(FAMILY_NAMES))
    for _ in range(120):
        i, j = rng.sample(range(12), 2)
        conjugator = [rng.choice([1, -1]) * rng.randint(1, 24) for _ in range(6)]
        family = rng.choice(FAMILY_NAMES)
        d = slide_family(d, family, i, j, conjugator, rng.choice((1, -1)))
    return d


def _normalize_relators(relators, normal=()):
    """Distinct nonempty canonical relators, shortest first, then lexicographic.

    ``normal`` holds relators already canonical and distinct; they are kept
    as they are and only ``relators`` are canonicalized.  The result depends
    on the set of canonical relators alone.
    """
    out = list(normal)
    seen = set(out)
    for r in relators:
        r = groups._canonical_rotation(cyclic_reduce(r))
        if r and r not in seen:
            seen.add(r)
            out.append(r)
    out.sort(key=lambda w: (len(w), w))
    return out


def reference_tietze(p, budget):
    """The Tietze loop with every relator renormalized after every move."""
    n = p.num_generators
    names = list(p.generator_names())
    rels = _normalize_relators(p.relators)
    steps = 0
    while steps < budget:
        target = None
        for ri, r in enumerate(rels):
            counts = Counter(abs(t) for t in r)
            singles = sorted(g for g, c in counts.items() if c == 1)
            if singles:
                target = (ri, singles[0])
                break
        if target is not None:
            ri, gen = target
            r = rels.pop(ri)
            pos = next(idx for idx, t in enumerate(r) if abs(t) == gen)
            r = r[pos:] + r[:pos]
            rep = invert_word(r[1:]) if r[0] > 0 else r[1:]

            def substitute(word):
                out = []
                for t in word:
                    out.extend(rep if t == gen else invert_word(rep) if t == -gen else (t,))
                return out

            def renumber(t):
                return t - 1 if t > gen else t + 1 if t < -gen else t

            rels = _normalize_relators(tuple(renumber(t) for t in substitute(w)) for w in rels)
            names.pop(gen - 1)
            n -= 1
            steps += 1
            continue
        found = None
        for i, u in enumerate(rels):
            for j, v in enumerate(rels):
                if i != j and (cand := reference_shorten(u, v)) is not None:
                    found = (i, cand)
                    break
            if found:
                break
        if found is None:
            break
        i, cand = found
        rels[i] = cand
        rels = _normalize_relators(rels)
        steps += 1
    return n, tuple(rels), tuple(names)


class TestPresentation:
    def test_rejects_unreduced_relator(self):
        with pytest.raises(ValueError):
            Presentation(2, ((1, -1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Presentation(1, ((2,),))

    def test_builder_reduces(self):
        p = presentation(2, [(1, 2, -2, -1), (1,)])
        assert p.relators == ((1,),)

    @pytest.mark.parametrize("relator", [(0,), (1, 0), (2,), (-2,)])
    def test_both_builders_reject_bad_codes(self, relator):
        for build in (Presentation, presentation):
            with pytest.raises(ValueError):
                build(1, (relator,))

    def test_stores_tuples_and_rejects_non_int_codes(self):
        # lists used to be stored as given, so hashing the result raised
        p = Presentation(2, [[1, 2]], names=["u", "v"])
        assert p == Presentation(2, ((1, 2),), ("u", "v"))
        assert hash(p) == hash(Presentation(2, ((1, 2),), ("u", "v")))
        for build in (Presentation, presentation):
            for relator in ((1.0,), (True,), (1, 2.0)):
                with pytest.raises(TypeError):
                    build(2, (relator,))
        with pytest.raises(TypeError):
            Presentation(1.0, ())

    def test_rejects_names_that_are_not_strings(self):
        # such names used to be accepted, and formatting the result raised
        for build in (Presentation, presentation):
            for names in ((3,), (None,), (b"x",)):
                with pytest.raises(TypeError, match="is not a str"):
                    build(1, ((-1,),), names=names)
        assert Presentation(1, ((-1,),), names=["x"]).names == ("x",)

    def test_names(self):
        p = Presentation(2, (), names=("u", "v"))
        assert p.generator_names() == ("u", "v")
        assert Presentation(2, ()).generator_names() == ("x1", "x2")


def reference_curve_relator(word, genus):
    """The relabelling loop that ``_curve_relator`` replaced: the signed
    block index of each letter, then a cyclic reduction."""
    out = []
    for c in word:
        t = block_index(c, genus)
        out.append(t if c > 0 else -t)
    return cyclic_reduce(out)


# the fixtures that parse to a diagram, r12 included
PARSED_FIXTURES = (
    "cp2", "cp2_sum_cp2bar", "cp2bar", "h1_torsion", "noisy", "nonstandard_pair", "r12", "s1xs3",
    "s2xs2", "s4",
)


class TestPi1:
    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(torsion=True))
    def test_curve_words_are_reduced_and_relabelled_as_before(self, library, moved):
        # a curve word is cyclically reduced wherever its diagram came from
        # (parse, the library, the moves), so the relabelled relator needs no
        # reduction and equals what the old loop made
        parsed = [parse((FIXTURES / f"{stem}.tri").read_text()) for stem in PARSED_FIXTURES]
        for d in (*parsed, *library.values(), moved):
            for w in (w for f in d.families() for w in f.words):
                assert cyclic_reduce(w) == w
                assert _curve_relator(w, d.genus) == reference_curve_relator(w, d.genus)

    @pytest.mark.parametrize(
        "entry",
        (pi1_presentation, reduced_pi1, lambda d: diagram_hom_count(d, 3), k_triple, homology, build_cube),
        ids=("pi1_presentation", "reduced_pi1", "diagram_hom_count", "k_triple", "homology", "build_cube"),
    )
    def test_letter_past_genus_raises_value_error(self, entry):
        # a diagram built without validation refuses a letter past its genus
        # with the cut system's ValueError on every path, never a KeyError
        for word in ((3,), (1, -4)):
            s = CutSystem(1, (word,))
            with pytest.raises(ValueError, match="^token index 2 exceeds genus 1$"):
                entry(TrisectionDiagram(1, s, s, s))

    def test_s4_trivial_presentation(self):
        p = pi1_presentation(standard_diagram("S4"))
        assert p.num_generators == 0 and p.relators == ()

    def test_cp2_presentation(self):
        p = pi1_presentation(standard_diagram("CP2"))
        assert p.num_generators == 2
        assert p.relators == (COMMUTATOR, (1,), (2,), (1, 2))
        assert tietze_simplify(p).num_generators == 0

    def test_s1xs3_presentation(self):
        p = pi1_presentation(standard_diagram("S1xS3"))
        assert p.relators == (COMMUTATOR, (1,), (1,), (1,))
        simple = tietze_simplify(p)
        assert simple.num_generators == 1 and simple.relators == ()

    @settings(max_examples=30, deadline=None)
    @given(moved_diagrams(torsion=True))
    def test_abelianization_matches_h1(self, library, moved):
        # H1 and its torsion come from the Smith form of beta's pairings with
        # alpha and gamma that homology keeps on the diagram; pi1 abelianizes
        # to the same group
        for d in (*library.values(), moved):
            assert abelianize_presentation(pi1_presentation(d)) == homology(d)[1]


def count_reductions(monkeypatch):
    """Record the budget of every ``groups.tietze_simplify`` call from now on."""
    budgets = []

    def counted(p, budget=DEFAULT_TIETZE_BUDGET, _fn=groups.tietze_simplify):
        budgets.append(budget)
        return _fn(p, budget)

    monkeypatch.setattr(groups, "tietze_simplify", counted)
    return budgets


def slid_sum_text():
    summed = connected_sum(standard_diagram("CP2"), standard_diagram("S1xS3"))
    return serialize(slide_family(stabilize(summed, "alpha"), "beta", 0, 2, (3,)))


class TestReducedPi1:
    def test_is_the_tietze_reduction_of_pi1(self, library):
        for name, d in library.items():
            for budget in (0, 5, DEFAULT_TIETZE_BUDGET):
                assert reduced_pi1(d, budget) == tietze_simplify(pi1_presentation(d), budget), name

    def test_one_reduction_per_diagram_and_budget(self, monkeypatch):
        d = parse(slid_sum_text())
        budgets = count_reductions(monkeypatch)
        # pi1 of CP2 # S1xS3 is Z: every image of the generator gives a hom
        assert diagram_hom_count(d, 3) == 6
        assert diagram_hom_count(d, 5) == 120
        assert not poincare_candidate_check(d).homology_matches_s4
        assert budgets == [DEFAULT_TIETZE_BUDGET]
        assert diagram_hom_count(d, 3, simplify_budget=7) == 6
        assert reduced_pi1(d, 7) is reduced_pi1(d, 7)
        assert budgets == [DEFAULT_TIETZE_BUDGET, 7]

    def test_not_shared_across_equal_diagrams(self, monkeypatch):
        d = parse(slid_sum_text())
        budgets = count_reductions(monkeypatch)
        first = reduced_pi1(d)
        twin = parse(serialize(d))
        assert twin == d and twin is not d
        second = reduced_pi1(twin)
        assert second == first and second is not first
        assert len(budgets) == 2

    def test_leaves_equality_hash_and_text(self):
        text = slid_sum_text()
        d, twin = parse(text), parse(text)
        before = (hash(d), repr(d), serialize(d))
        reduced_pi1(d)
        reduced_pi1(d, 3)
        assert d == twin and twin == d and d == parse(serialize(d))
        assert (hash(d), repr(d), serialize(d)) == before
        assert hash(d) == hash(twin) and serialize(d) == text

    def test_negative_budget_raises_on_every_call(self):
        d = parse(slid_sum_text())
        for _ in range(2):
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                reduced_pi1(d, -1)
        reduced_pi1(d)
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            diagram_hom_count(d, 3, simplify_budget=-1)


def test_groups_builds_no_matrix():
    # abelianizations hand sparse exponent rows to the divisor routine: the
    # groups layer neither imports nor binds a matrix class or constructor
    tree = ast.parse(Path(groups.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint({"IntMatrix", "_matrix", "quotient_invariants"})
    assert not {"IntMatrix", "_matrix"} & set(vars(groups))


def relator_matrix(p):
    """Dense reference: the exponent-sum rows of ``p``'s relators, counted
    letter by letter, as a checked ``IntMatrix``."""
    n = p.num_generators
    return IntMatrix([[r.count(g) - r.count(-g) for g in range(1, n + 1)] for r in p.relators], n)


@st.composite
def abelianization_cases(draw):
    """Presentations on 0 to 6 generators whose relators are random words,
    commutators (zero exponent sums) or long powers and products, up to
    about 200 letters."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return presentation(0, [])
    tokens = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = st.lists(tokens, min_size=1, max_size=8).map(tuple)

    def relator():
        kind = draw(st.sampled_from(("word", "commutator", "long")))
        w = draw(words)
        if kind == "commutator":
            u = draw(words)
            return w + u + invert_word(w) + invert_word(u)
        if kind == "long":
            return w * draw(st.integers(2, 25))
        return w

    return presentation(n, [relator() for _ in range(draw(st.integers(0, 7)))])


class TestAbelianize:
    def test_examples(self):
        assert abelianize_presentation(presentation(2, [COMMUTATOR])) == (2, ())
        assert abelianize_presentation(presentation(1, [(1, 1)])) == (0, (2,))
        assert abelianize_presentation(
            pi1_presentation(standard_diagram("S1xS3"))
        ) == (1, ())

    @settings(max_examples=300, deadline=None)
    @given(abelianization_cases())
    @example(presentation(0, []))
    @example(presentation(2, [COMMUTATOR]))
    @example(presentation(3, [COMMUTATOR, (3, 3, 3, 3, 3, 3), (1, 3, -1, 2, -3)]))
    @example(presentation(2, [(1,) * 150 + (2, 2), (2,) * 90 + (-1,) * 7]))
    def test_matches_dense_reference(self, p):
        # the sparse exponent rows and their divisors against dense rows
        # counted letter by letter and the public quotient
        assert abelianize_presentation(p) == quotient_invariants(p.num_generators, relator_matrix(p))


class TestTietze:
    def test_kill_both_generators(self):
        p = presentation(2, rel((1,), (2,)))
        out = tietze_simplify(p)
        assert out.num_generators == 0 and out.relators == ()

    def test_cp2_collapse(self):
        p = presentation(2, [COMMUTATOR, (1,), (2,), (1, 2)])
        assert tietze_simplify(p).num_generators == 0

    def test_idempotent(self, library):
        for d in library.values():
            once = tietze_simplify(pi1_presentation(d))
            assert tietze_simplify(once) == once

    def test_budget_zero_only_normalizes(self):
        p = presentation(2, rel((1,), (2,)))
        out = tietze_simplify(p, budget=0)
        assert out.num_generators == 2

    def test_never_grows(self, library):
        def size(p):
            return p.num_generators + sum(len(r) for r in p.relators)

        for d in library.values():
            p = pi1_presentation(d)
            assert size(tietze_simplify(p)) <= size(p)

    def test_relator_shortening(self):
        # second relator contains more than half of the first one
        p = presentation(2, [(1, 2, 1, 2), (1, 2, 1)])
        out = tietze_simplify(p)
        assert sum(len(r) for r in out.relators) < 7

    @settings(max_examples=200, deadline=None)
    @given(presentations(), st.sampled_from((0, 1, 5, 1000)))
    def test_matches_reference_loop(self, p, budget):
        q = tietze_simplify(p, budget)
        assert (q.num_generators, q.relators, q.names) == reference_tietze(p, budget)

    @settings(max_examples=200, deadline=None)
    @given(shortening_presentations(), st.sampled_from((1, 2, 5, 1000)))
    def test_matches_reference_loop_over_several_shortenings(self, p, budget):
        q = tietze_simplify(p, budget)
        assert (q.num_generators, q.relators, q.names) == reference_tietze(p, budget)

    @settings(max_examples=200, deadline=None)
    @given(presentations(), st.sampled_from((0, 1, 5, 1000)), st.data())
    def test_depends_on_canonical_relator_set_alone(self, p, budget, data):
        # shuffle the relators, repeat some, and rotate or invert each copy
        relators = []
        for r in p.relators:
            for _ in range(data.draw(st.integers(1, 2))):
                s = data.draw(st.integers(0, len(r) - 1))
                w = r[s:] + r[:s]
                relators.append(invert_word(w) if data.draw(st.booleans()) else w)
        relators = data.draw(st.permutations(relators))
        q = tietze_simplify(p, budget)
        q2 = tietze_simplify(presentation(p.num_generators, relators, p.names), budget)
        assert (q2.num_generators, q2.relators, q2.names) == (q.num_generators, q.relators, q.names)

    @settings(max_examples=200, deadline=None)
    @given(one_letter_presentations())
    def test_one_letter_closure_matches_reference_loop_at_every_budget(self, p):
        # budgets below the generator count take the one-kill-per-step path
        for budget in range(p.num_generators + 2):
            q = tietze_simplify(p, budget)
            assert (q.num_generators, q.relators, q.names) == reference_tietze(p, budget), budget

    def test_short_budget_kills_largest_one_letter_generator_first(self):
        # killing x2 turns (x2 x3) into the one-letter relator x3, which goes
        # before x1: the closure {x1, x2, x3} cannot be cut off after its first round
        p = presentation(3, [(2,), (1,), (2, 3)])
        two = tietze_simplify(p, 2)
        assert (two.names, two.relators) == (("x1",), ((-1,),))
        assert tietze_simplify(p, 1).names == ("x1", "x3")
        assert tietze_simplify(p, 3).num_generators == 0

    def test_one_letter_closure_canonicalizes_only_survivors(self, monkeypatch):
        # S4 stabilized nine times: the one-letter closure leaves no relator
        # of pi1 or of any cube vertex but the bare surface group's, and only
        # the relators that survive it are canonicalized, each once (one
        # canonical rotation in all, against 216 when every kill is a step).
        # Budgets below the generator count kill one generator per step, and
        # again only the relators left when the budget is spent are canonicalized
        d = standard_diagram("S4")
        for fam in FAMILY_NAMES * 3:
            d = stabilize(d, fam)
        calls = Counter()

        def counted(w, _fn=groups._canonical_rotation):
            calls["rotation"] += 1
            return _fn(w)

        monkeypatch.setattr(groups, "_canonical_rotation", counted)
        for p in (pi1_presentation(d), *build_cube(d).vertices.values()):
            rels = {cyclic_reduce(r) for r in p.relators} - {()}
            while ones := {abs(w[0]) for w in rels if len(w) == 1}:
                rels = {cyclic_reduce([t for t in w if abs(t) not in ones]) for w in rels} - {()}
            assert len(rels) == (p.num_generators > 0 and len(p.relators) == 1)
            calls.clear()
            tietze_simplify(p, 1000)
            assert calls["rotation"] <= len(rels)
            n = p.num_generators
            for budget in (n - 1, n // 2, 1):
                calls.clear()
                q = tietze_simplify(p, budget)
                assert calls["rotation"] <= len(q.relators), budget

    def test_shortening_presentations_take_several_moves(self):
        # c = (x2 x1)^-1: the square c c shortens both longer words, in
        # three moves in all
        c = [-1, -2]
        p = presentation(2, [c + c, c + c + [2, 2], c + c + [-1, -1]])
        found = []

        def shorten(u, v, _fn=groups._shorten):
            found.append(cand := _fn(u, v))
            return cand

        with mock.patch.object(groups, "_shorten", shorten):
            q = tietze_simplify(p, 1000)
        assert sum(cand is not None for cand in found) == 3
        assert (q.num_generators, q.relators, q.names) == reference_tietze(p, 1000)

    def test_closure_drops_killed_one_letter_relators_unreduced(self, monkeypatch):
        # S4 stabilized nine times, at a budget that kills in bulk and at
        # budgets that kill one generator per step: a killed generator's
        # one-letter relator is dropped as it is.  The only relators that
        # reach cyclic_reduce and reduce to nothing are longer ones whose
        # letters all die (the surface relator here), as the model counts
        d = standard_diagram("S4")
        for fam in FAMILY_NAMES * 3:
            d = stabilize(d, fam)
        empty = Counter()

        def counted(w, _fn=groups.cyclic_reduce):
            w = tuple(w)
            empty["calls"] += not w
            return _fn(w)

        monkeypatch.setattr(groups, "cyclic_reduce", counted)
        for p in (pi1_presentation(d), *build_cube(d).vertices.values()):
            n = p.num_generators
            for budget in (1000, n - 1, 1):
                rels, killed, emptied = [cyclic_reduce(r) for r in p.relators], 0, 0
                while killed < budget and (ones := {abs(w[0]) for w in rels if len(w) == 1}):
                    ones = ones if budget >= n else {max(ones)}
                    killed += len(ones)
                    rels = [cyclic_reduce([t for t in w if abs(t) not in ones]) if len(w) > 1 else w
                            for w in rels if len(w) > 1 or abs(w[0]) not in ones]
                    emptied += rels.count(())
                    rels = [w for w in rels if w]
                assert any(len(r) == 1 for r in p.relators) == (killed > 0)
                empty.clear()
                tietze_simplify(p, budget)
                assert empty["calls"] <= emptied, budget

    def test_shortening_reduces_its_result_once(self, monkeypatch):
        # no generator occurs once, so the one step shortens the 4-letter
        # relator by the 7-letter one; _shorten returns it cyclically
        # reduced, and the step only rotates it to its canonical form
        p = Presentation(2, ((1, 1, 2, 2), (1, 1, 2, 2, 1, 1, 2)))
        calls = []

        def counted(w, _fn=groups.cyclic_reduce):
            calls.append(w)
            return _fn(w)

        monkeypatch.setattr(groups, "cyclic_reduce", counted)
        q = tietze_simplify(p, 1)
        assert len(calls) == 1
        assert (q.num_generators, q.relators, q.names) == reference_tietze(p, 1)

    def test_matches_reference_loop_on_cube_vertices(self, library):
        d = connected_sum(library["S2xS2"], library["CP2+CP2BAR"])
        for p in build_cube(d).vertices.values():
            q = tietze_simplify(p, 1000)
            assert (q.num_generators, q.relators, q.names) == reference_tietze(p, 1000)

    def test_renormalizes_only_changed_relators(self, monkeypatch):
        # genus 10: S4 stabilized by alpha, beta, gamma three times, then
        # alpha, and slid ten times; every relator renormalized after every
        # move costs 6,146 canonical rotations here
        d = standard_diagram("S4")
        for fam in FAMILY_NAMES * 3 + ("alpha",):
            d = stabilize(d, fam)
        for t in range(10):
            d = slide_family(d, FAMILY_NAMES[t % 3], t, (t + 1) % 10, (), 1)
        calls = Counter()

        def counted(w, _fn=groups._canonical_rotation):
            calls["rotation"] += 1
            return _fn(w)

        monkeypatch.setattr(groups, "_canonical_rotation", counted)
        # the ten reductions a Tietze-only cube check makes: six face
        # pushouts and the four distinct sinks; each pushout reduces to its sink
        cube = build_cube(d)
        v = cube.vertices
        sinks = {}
        for source, mid1, mid2, sink in CUBE_FACES:
            e1, e2 = cube.edge(source, mid1), cube.edge(source, mid2)
            pushout = _pushout_presentation(v[mid1], v[mid2], e1.images, e2.images)
            left = tietze_simplify(pushout, 1000)
            if sink not in sinks:
                sinks[sink] = tietze_simplify(v[sink], 1000)
            assert (left.num_generators, left.relators) == (
                sinks[sink].num_generators,
                sinks[sink].relators,
            )
        assert calls["rotation"] <= 1000

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(LETTERS_TO_8),
            # periodic words, where many rotations start at the least letter
            st.builds(operator.mul, st.lists(LETTERS_TO_8, min_size=1, max_size=4), st.integers(2, 6)),
        )
    )
    @example([1, 2] * 5)
    @example([-3, 1, 3, -1] * 3)
    def test_canonical_rotation_matches_list_form(self, w):
        w = tuple(w)
        n = len(w)
        rotations = [v[s : s + n] for v in (w + w, invert_word(w) * 2) for s in range(n)]
        assert groups._canonical_rotation(w) == min(rotations, default=())

    def test_canonical_rotation_memory_is_linear(self):
        # holding all 2n rotations of a 3,000-letter word would take about 144 MB
        rng = random.Random(7)
        w = tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(3000))
        tracemalloc.start()
        try:
            groups._canonical_rotation(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @settings(max_examples=500, deadline=None)
    @given(shorten_pairs())
    def test_shorten_matches_reference_scan(self, pair):
        u, v = pair
        assert groups._shorten(u, v) == reference_shorten(u, v)

    def test_shorten_memory_is_linear_and_fast(self):
        # aperiodic words on disjoint letters: every piece of v is looked up
        # and none matches.  An index keyed by the windows themselves would
        # peak at 35 MB on these words, and the letter-by-letter scan takes 43 s
        rng = random.Random(7)
        u = tuple(rng.choice((1, 2)) for _ in range(3000))
        v = tuple(rng.choice((3, 4)) for _ in range(3000))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert groups._shorten(u, v) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert time.perf_counter() - start < 5

    def test_preserves_group_invariants(self, library):
        for d in library.items():
            name, d = d
            p = pi1_presentation(d)
            q = tietze_simplify(p)
            assert abelianize_presentation(p) == abelianize_presentation(q), name
            assert count_homs(p, 3) == count_homs(q, 3), name


class TestCountHoms:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_trivial_group(self, degree):
        assert count_homs(presentation(0, []), degree) == 1

    def test_degree_one_many_generators(self):
        # S1 is trivial, so the count is 1 whatever the presentation
        assert count_homs(presentation(3000, []), 1) == 1
        assert count_homs(presentation(2, [COMMUTATOR]), 1) == 1

    def test_free_rank_one(self):
        assert count_homs(presentation(1, []), 3) == 6

    def test_commuting_pairs_in_s3(self):
        # brute-force oracle over all 36 pairs
        perms = list(permutations(range(3)))
        compose = lambda p, q: tuple(p[q[k]] for k in range(3))
        expected = sum(
            1 for p, q in product(perms, perms) if compose(p, q) == compose(q, p)
        )
        assert expected == 18
        assert count_homs(presentation(2, [COMMUTATOR]), 3) == 18

    def test_cyclic_two(self):
        # Z/2 into S3: identity and the three transpositions
        assert count_homs(presentation(1, [(1, 1)]), 3) == 4

    def test_trefoil_group(self):
        # <x, y | x^2 = y^3> into S3: p^2 = q^3 forces p^2 = e (3-cycles
        # square to the other 3-cycle, never to a cube), so 4 choices of p
        # times the 3 cube roots of the identity
        assert count_homs(presentation(2, [(1, 1, -2, -2, -2)]), 3) == 12

    def test_matches_bruteforce_reference(self):
        cases = [
            presentation(1, [(1, 1, 1)]),
            presentation(2, [COMMUTATOR]),
            presentation(2, [(1, 2, 1)]),
            presentation(2, [(1, 1), (2, 2, 2), (1, 2, 1, 2)]),
        ]
        for p in cases:
            for degree in (2, 3):
                assert count_homs(p, degree) == reference_count_homs(p, degree)

    @settings(max_examples=60, deadline=None)
    @given(free_products(), st.sampled_from((2, 3)))
    def test_free_products_match_reference(self, p, degree):
        assert count_homs(p, degree) == reference_count_homs(p, degree)

    def test_free_group_to_s5(self):
        assert count_homs(presentation(3, []), 5) == 120**3

    def test_free_product_of_cyclics(self):
        # <x, y, z | x^2, y^3> into S3: 4 involutions or e, 3 cube roots of e, any z
        assert count_homs(presentation(3, [(1, 1), (2, 2, 2)]), 3) == 4 * 3 * 6

    def test_long_chain_needs_no_recursion(self):
        # x_i x_{i+1} = 1 ties 1500 generators together; each image after
        # the first is forced
        chain = presentation(1500, [(i, i + 1) for i in range(1, 1500)])
        assert count_homs(chain, 3, cap=6**1500) == 6

    def test_many_free_generators(self):
        assert count_homs(presentation(3000, []), 2, cap=2**3000) == 2**3000

    def test_cap_refusal(self):
        with pytest.raises(EnumerationRefused) as exc:
            count_homs(presentation(4, []), 5, cap=1000)
        assert exc.value.cost == 120**4

    def test_cap_is_on_raw_cost(self):
        # two free factors would need no enumeration, but the cap still
        # counts every raw assignment
        with pytest.raises(EnumerationRefused) as exc:
            count_homs(presentation(3, [(1, 1)]), 5, cap=120**3 - 1)
        assert exc.value.cost == 120**3

    def test_degree_range(self):
        with pytest.raises(ValueError):
            count_homs(presentation(1, []), 6)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            count_homs(presentation(0, []), 3, cap=-1)

    def test_diagram_hom_count_separates(self):
        assert diagram_hom_count(standard_diagram("S4"), 3) == 1
        assert diagram_hom_count(standard_diagram("S1xS3"), 3) == 6

    def test_move_invariance_of_counts(self, library, move_engine):
        rng = random.Random(13)
        for name, d in library.items():
            for degree in (3, 4):
                base = diagram_hom_count(d, degree)
                moved, _ = move_engine(d, rng, max_moves=6)
                assert diagram_hom_count(moved, degree) == base, (name, degree)


class TestCube:
    def test_shape(self, library):
        for d in library.values():
            cube = build_cube(d)
            assert set(cube.vertices) == set(CUBE_VERTICES)
            assert len(cube.edges) == 12

    def test_cp2_vertex_abelianizations(self):
        cube = build_cube(standard_diagram("CP2"))
        ab = {name: abelianize_presentation(p) for name, p in cube.vertices.items()}
        assert ab["surface"] == (2, ())
        for fam in ("alpha", "beta", "gamma"):
            assert ab[f"handlebody_{fam}"] == (1, ())
        for sector in ("alpha_beta", "beta_gamma", "gamma_alpha"):
            assert ab[f"sector_{sector}"] == (0, ())
        assert ab["total"] == (0, ())

    def test_s4_cube_fully_trivial(self):
        cube = build_cube(standard_diagram("S4"))
        for p in cube.vertices.values():
            assert p.num_generators == 0 and p.relators == ()

    def test_s1xs3_pattern(self):
        cube = build_cube(standard_diagram("S1xS3"))
        ab = {name: abelianize_presentation(p) for name, p in cube.vertices.items()}
        assert ab["surface"] == (2, ())
        assert all(ab[f"handlebody_{f}"] == (1, ()) for f in ("alpha", "beta", "gamma"))
        assert ab["total"] == (1, ())

    def test_handlebody_and_sector_ranks(self, library):
        for d in library.items():
            name, d = d
            cube = build_cube(d)
            for fam in ("alpha", "beta", "gamma"):
                assert abelianize_presentation(cube.vertices[f"handlebody_{fam}"]) == (
                    d.genus,
                    (),
                ), name
            ks = k_triple(d)
            for sector, k in zip(("alpha_beta", "beta_gamma", "gamma_alpha"), ks):
                assert abelianize_presentation(cube.vertices[f"sector_{sector}"]) == (
                    k,
                    (),
                ), name

    def test_verify_all_library_cubes(self, library):
        for name, d in library.items():
            report = verify_cube(build_cube(d), budget=1000)
            assert report.ok, name
            assert all(f.status == "Verified" for f in report.faces), name
            assert all(e.surjectivity == "exact" for e in report.edges)
            assert all(e.relators_mapped for e in report.edges)

    def test_corrupted_sector_fails_exactly_one_face(self):
        cube = build_cube(standard_diagram("CP2"))
        corrupted = corrupt_sector(cube, "sector_alpha_beta")
        report = verify_cube(corrupted, budget=1000)
        failed = [f for f in report.faces if f.status == "Failed"]
        assert len(failed) == 1
        assert failed[0].vertices[-1] == "sector_alpha_beta"
        assert not report.ok

    def test_edge_not_a_homomorphism_is_not_ok(self):
        # a1 -> b1 and b1 -> b1 on sector_alpha_beta -> total: the relator a1
        # goes to b1, which generates total = Z, yet every face still closes
        cube = build_cube(standard_diagram("S1xS3"))
        edges = tuple(
            CubeEdge(e.source, e.target, ((2,), (2,)))
            if (e.source, e.target) == ("sector_alpha_beta", "total")
            else e
            for e in cube.edges
        )
        report = verify_cube(GroupTrisectionCube(cube.vertices, edges), 1000)
        assert all(f.status == "Verified" for f in report.faces)
        bad = [e for e in report.edges if not e.relators_mapped]
        assert [(e.source, e.target) for e in bad] == [("sector_alpha_beta", "total")]
        assert not report.ok

    def test_total_vertex_is_pi1(self, library):
        for name, d in library.items():
            assert build_cube(d).vertices["total"] == pi1_presentation(d), name

    @staticmethod
    def count_work(monkeypatch, cube, budget):
        calls = Counter()
        for name in ("tietze_simplify", "abelianize_presentation", "_smith_divisors", "_exponent_rows"):

            def counted(*args, _fn=getattr(groups, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(groups, name, counted)
        return verify_cube(cube, budget), calls

    def test_work_per_cube(self, monkeypatch):
        # every map of a built cube is the identity and every sink's relators
        # are the union of its middle relators, so the syntactic rules settle
        # all twelve edges and six faces with no search and no lattice
        cube = build_cube(connected_sum(standard_diagram("S2xS2"), standard_diagram("CP2")))
        report, calls = self.count_work(monkeypatch, cube, 1000)
        assert all(f.status == "Verified" for f in report.faces)
        assert report.ok
        assert calls == Counter()

    def test_work_per_corrupted_cube(self, monkeypatch):
        # only the three faces that touch the corrupted sector take the Tietze
        # path: three pushouts and the two distinct sinks (the sector and
        # total); the three edges at the sector abelianize their two targets
        # once each.  The two edges into the sector extend its lattice once
        # each; the sector -> total edge sends x to the empty word, so both
        # of its tests add only zero rows and reuse total's abelianization
        cube = build_cube(connected_sum(standard_diagram("S2xS2"), standard_diagram("CP2")))
        report, calls = self.count_work(monkeypatch, corrupt_sector(cube, "sector_alpha_beta"), 1000)
        touching = [f for f in report.faces if "sector_alpha_beta" in f.vertices]
        assert len(touching) == 3
        assert all(f.status == "Verified" for f in report.faces if f not in touching)
        assert calls["tietze_simplify"] == 3 + 2
        # Smith forms: those 2 + 2, and the pushout side of the one Failed
        # face, whose sink's abelianization is one of the first 2
        assert [f.status for f in touching].count("Failed") == 1
        assert calls["_smith_divisors"] == 2 + 2 + 1
        # exponent rows: once for each of the two targets, serving both its
        # abelianization and its edges' lattice tests; once for each image
        # set a test reads (the sector -> total edge's generator images, and
        # the relator images of all three edges); once for the Failed
        # face's reduced pushout
        assert calls["_exponent_rows"] == 2 + 1 + 3 + 1

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(), st.sampled_from((0, 5, 1000)))
    def test_matches_reference_procedure(self, d, budget):
        # small budgets leave faces only homologically verified
        cube = build_cube(d)
        for c in [cube] + cube_variants(cube):
            report = verify_cube(c, budget)
            assert (report.edges, report.faces) == reference_verify(c, budget)

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(), st.sampled_from((0, 5, 1000)))
    def test_syntactic_rules_only_upgrade_tietze_statuses(self, d, budget):
        # against the Tietze-only procedure: the edges and the verdict are the
        # same, a face can only go from HomologicallyVerified to Verified, and
        # Failed never changes
        cube = build_cube(d)
        for c in [cube] + cube_variants(cube):
            report = verify_cube(c, budget)
            edges, faces = tietze_only_verify(c, budget)
            assert report.edges == edges
            assert report.ok == CubeReport(edges, faces).ok
            for new, old in zip(report.faces, faces):
                assert new.vertices == old.vertices
                assert new.status == old.status or (
                    (old.status, new.status) == ("HomologicallyVerified", "Verified")
                )

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(), st.data())
    def test_perturbed_edges_match_reference(self, d, data):
        # one image replaced by a random word: the edge report matches the
        # reference, and ok needs every edge mapped
        cube = build_cube(d)
        k = data.draw(st.integers(min_value=0, max_value=len(cube.edges) - 1))
        e = cube.edges[k]
        n = cube.vertices[e.target].num_generators
        if e.images and n:
            letters = st.integers(min_value=1, max_value=n).flatmap(lambda x: st.sampled_from((x, -x)))
            images = list(e.images)
            i = data.draw(st.integers(min_value=0, max_value=len(images) - 1))
            images[i] = tuple(data.draw(st.lists(letters, max_size=3)))
            e = CubeEdge(e.source, e.target, tuple(images))
        cube = GroupTrisectionCube(cube.vertices, cube.edges[:k] + (e,) + cube.edges[k + 1 :])
        report = verify_cube(cube, 5)
        v = cube.vertices
        assert report.edges == tuple(reference_edge(x, v[x.source], v[x.target]) for x in cube.edges)
        assert report.ok == (
            all(x.surjectivity != "failed" and x.relators_mapped for x in report.edges)
            and all(f.status != "Failed" for f in report.faces)
        )

    def test_negative_budget_rejected(self, library):
        # even though the syntactic rules settle every face with no search
        for d in library.values():
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                verify_cube(build_cube(d), -1)

    def test_malformed_cube_rejected(self):
        cube = build_cube(standard_diagram("CP2"))
        missing = dict(cube.vertices)
        del missing["total"]
        with pytest.raises(MalformedCubeError):
            verify_cube(GroupTrisectionCube(missing, cube.edges))
        bad_arity = GroupTrisectionCube(
            dict(cube.vertices),
            tuple(
                CubeEdge(e.source, e.target, e.images[:-1])
                if e.source == "surface" and e.target == "handlebody_alpha"
                else e
                for e in cube.edges
            ),
        )
        with pytest.raises(MalformedCubeError):
            verify_cube(bad_arity)

    @pytest.mark.parametrize("bad", [0, 2, -2, 1.0, True])
    def test_image_outside_target_rejected_before_any_pushout(self, monkeypatch, bad):
        # pushouts are built unchecked, so every image is checked first; the
        # corrupted cube builds pushouts once its images are valid
        calls = Counter()

        def counted(*args, _fn=groups._pushout_presentation):
            calls["pushout"] += 1
            return _fn(*args)

        monkeypatch.setattr(groups, "_pushout_presentation", counted)
        cube = corrupt_sector(build_cube(standard_diagram("CP2")), "sector_alpha_beta")
        verify_cube(cube, 10)
        assert calls["pushout"] > 0
        calls.clear()
        edges = tuple(
            CubeEdge(e.source, e.target, ((1, bad),) + e.images[1:])
            if (e.source, e.target) == ("handlebody_alpha", "sector_alpha_beta")
            else e
            for e in cube.edges
        )
        with pytest.raises(MalformedCubeError, match="outside the target"):
            verify_cube(GroupTrisectionCube(cube.vertices, edges), 10)
        assert calls["pushout"] == 0

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda images: tuple(tuple(map(float, w)) for w in images),
            lambda images: ((True,), *images[1:]),
        ],
        ids=["float", "bool"],
    )
    def test_identity_written_in_other_numbers_rejected_before_any_rule(self, monkeypatch, rewrite):
        # ((1.0,), (2.0,)) and ((True,), (2,)) compare equal to an identity's
        # images, so the letter check must come before the identity rule,
        # the edge checks and the pushouts
        calls = Counter()
        for name in ("_check_edge", "_pushout_presentation", "tietze_simplify"):

            def counted(*args, _fn=getattr(groups, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(groups, name, counted)
        cube = build_cube(standard_diagram("CP2"))
        edges = tuple(
            CubeEdge(e.source, e.target, rewrite(e.images))
            if (e.source, e.target) == ("surface", "handlebody_beta")
            else e
            for e in cube.edges
        )
        written = next(e.images for e in edges if e.target == "handlebody_beta")
        assert written == next(e.images for e in cube.edges if e.target == "handlebody_beta")
        with pytest.raises(MalformedCubeError, match="outside the target"):
            verify_cube(GroupTrisectionCube(cube.vertices, edges), 10)
        assert calls == Counter()

    def test_shared_tuple_into_a_smaller_vertex_is_letter_checked(self):
        # the maps into the corrupted sector keep the built cube's 2g-tuple,
        # which names generator 2 of a 1-generator target
        cube = build_cube(standard_diagram("CP2"))
        vertices = dict(cube.vertices, sector_alpha_beta=Presentation(1, ((1, 1),), ("x",)))
        edges = tuple(
            CubeEdge(e.source, e.target, ((),)) if e.source == "sector_alpha_beta" else e
            for e in cube.edges
        )
        with pytest.raises(
            MalformedCubeError,
            match="^map handlebody_alpha -> sector_alpha_beta mentions generator 2 "
            "outside the target$",
        ):
            verify_cube(GroupTrisectionCube(vertices, edges), 10)

    @pytest.mark.parametrize("sector", ["sector_alpha_beta", "sector_beta_gamma", "sector_gamma_alpha"])
    def test_list_images_give_the_tuple_report(self, sector):
        # a library caller may write a map's images as lists; the pushouts
        # of the faces the corrupted sector touches concatenate them
        cube = corrupt_sector(build_cube(standard_diagram("CP2")), sector)
        listed = GroupTrisectionCube(
            cube.vertices,
            tuple(CubeEdge(e.source, e.target, [list(w) for w in e.images]) for e in cube.edges),
        )
        for budget in (0, 10, 1000):
            assert verify_cube(listed, budget) == verify_cube(cube, budget)


def in_rowspan(m, vec):
    """Is ``vec`` an integer combination of the rows of ``m``?  With
    U m^T V = D the Smith form of m^T, x m = vec has an integer solution iff
    entry i of U vec^T is divisible by d_i below the rank and 0 past it."""
    divisors, u = reference_smith(m.transpose(), ("u",))
    uv = [sum(a * b for a, b in zip(row, vec)) for row in u.rows]
    return all(x % p == 0 for x, p in zip(uv, divisors)) and not any(uv[len(divisors) :])


def reference_edge(e, src, tgt):
    """An edge check by the plain procedure: surjective onto the generators,
    else onto the abelianization; each relator's image tested for membership."""
    n = tgt.num_generators

    def vector(word):
        return [sum((t == i) - (t == -i) for t in word) for i in range(1, n + 1)]

    def image(r):
        return [x for t in r for x in (e.images[t - 1] if t > 0 else invert_word(e.images[-t - 1]))]

    if all((i,) in e.images or (-i,) in e.images for i in range(1, n + 1)):
        surjectivity = "exact"
    else:
        span = IntMatrix([vector(w) for w in e.images + tgt.relators], n)
        onto = all(in_rowspan(span, [int(i == j) for j in range(n)]) for i in range(n))
        surjectivity = "abelian" if onto else "failed"
    mapped = all(in_rowspan(relator_matrix(tgt), vector(image(r))) for r in src.relators)
    return EdgeCheck(e.source, e.target, surjectivity, mapped)


@st.composite
def random_edges(draw):
    """A map from a random presentation on at most three generators, with
    short relators, to another, by random short images of its generators."""

    def words(n):
        letters = st.integers(min_value=1, max_value=n).flatmap(lambda x: st.sampled_from((x, -x)))
        return st.lists(letters, max_size=4).map(tuple)

    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tgt = presentation(n, draw(st.lists(words(n), max_size=3)))
    src = presentation(m, draw(st.lists(words(m), max_size=3)))
    images = tuple(draw(st.lists(words(n), min_size=m, max_size=m)))
    return CubeEdge("source", "target", images), src, tgt


@settings(max_examples=200, deadline=None)
@given(random_edges())
def test_check_edge_matches_membership_oracle(edge):
    # mapped by comparing the invariants of the target's abelianization with
    # those of its quotient by the images, against membership row by row
    e, src, tgt = edge
    check = _check_edge(e.source, e.target, e.images, src, tgt, _lattice(tgt))
    assert check == reference_edge(e, src, tgt)


@st.composite
def lattice_edges(draw):
    """A map into a random presentation whose image rows are all zero, all
    copies of target relator rows, or such rows and one new row.  The
    source has one relator per generator, x_i itself, so the same rows
    enter the surjectivity test and the relators-mapped test."""
    n = draw(st.integers(1, 3))
    letters = st.integers(min_value=1, max_value=n).flatmap(lambda x: st.sampled_from((x, -x)))
    words = st.lists(letters, min_size=1, max_size=4).map(tuple)
    tgt = presentation(n, draw(st.lists(words, min_size=1, max_size=3)))

    def vector(w):
        return tuple(w.count(i) - w.count(-i) for i in range(1, n + 1))

    def zero_word():  # written unreduced, as images may be
        w, u = draw(words), draw(words)
        commutator = w + u + invert_word(w) + invert_word(u)
        return draw(st.sampled_from(((), w + invert_word(w), commutator)))

    def old_word():  # a conjugate of a rotation of a target relator
        r, c = draw(st.sampled_from(tgt.relators)), draw(words)
        k = draw(st.integers(0, len(r) - 1))
        return c + r[k:] + r[:k] + invert_word(c)

    kind = draw(st.sampled_from(("zero", "old", "new") if tgt.relators else ("zero", "new")))
    m = draw(st.integers(1, 3))
    makers = (zero_word, old_word) if kind != "zero" and tgt.relators else (zero_word,)
    pick = lambda: draw(st.sampled_from(makers))()
    images = [pick() for _ in range(m)]
    if kind == "old":
        images[draw(st.integers(0, m - 1))] = old_word()
    elif kind == "new":
        rows = {(0,) * n, *map(vector, tgt.relators)}
        new = draw(words.filter(lambda w: vector(w) not in rows))
        images.insert(draw(st.integers(0, m)), new)
    src = presentation(len(images), [(i,) for i in range(1, len(images) + 1)])
    return CubeEdge("source", "target", tuple(images)), src, tgt, kind


@settings(max_examples=300, deadline=None)
@given(lattice_edges())
def test_check_edge_reuses_the_target_lattice_only_when_no_row_is_new(edge):
    # zero rows and copies of target rows leave the target's lattice as it
    # is, so the target's abelianization answers both tests with no Smith
    # form; one new row, in the lattice or not, takes the Smith form
    e, src, tgt, kind = edge
    lattice = _lattice(tgt)
    smith = mock.Mock(wraps=groups._smith_divisors)
    with mock.patch.object(groups, "_smith_divisors", smith):
        check = _check_edge(e.source, e.target, e.images, src, tgt, lattice)
    assert check == reference_edge(e, src, tgt)
    if kind == "new":
        assert smith.call_count >= 1
    else:
        assert smith.call_count == 0
        assert check.relators_mapped


def test_check_edge_sees_torsion():
    # <y | y> -> <x | x^2>: y -> x sends the relator outside 2Z, y -> x^4
    # inside it; either way the quotient by the images has free rank 0
    src, tgt = presentation(1, [(1,)]), presentation(1, [(1, 1)])
    for image, mapped in (((1,), False), ((1, 1, 1, 1), True)):
        e = CubeEdge("source", "target", (image,))
        check = _check_edge(e.source, e.target, e.images, src, tgt, _lattice(tgt))
        assert check.relators_mapped is mapped
        assert reference_edge(e, src, tgt).relators_mapped is mapped


def tietze_only_verify(cube, budget):
    """Edge and face checks by the plain procedure: each edge by
    :func:`reference_edge`, and each face abelianized raw before both sides
    are Tietze-reduced."""
    v = cube.vertices
    edges = tuple(reference_edge(e, v[e.source], v[e.target]) for e in cube.edges)
    faces = []
    for source, mid1, mid2, sink in CUBE_FACES:
        pushout = _pushout_presentation(
            v[mid1], v[mid2], cube.edge(source, mid1).images, cube.edge(source, mid2).images
        )
        if abelianize_presentation(pushout) != abelianize_presentation(v[sink]):
            status = "Failed"
        else:
            left, right = tietze_simplify(pushout, budget), tietze_simplify(v[sink], budget)
            same = (left.num_generators, left.relators) == (right.num_generators, right.relators)
            status = "Verified" if same else "HomologicallyVerified"
        faces.append(FaceCheck((source, mid1, mid2, sink), status))
    return edges, tuple(faces)


def reference_verify(cube, budget):
    """:func:`tietze_only_verify` with the two syntactic rules on top.  An
    identity edge sends each generator to the same generator of a target
    with as many generators.  One whose source relators all occur in the
    target is exact with its relators mapped.  A face whose four edges are
    identities is Verified when its middle relators together are exactly its
    sink's relators."""
    v = cube.vertices
    rels = {name: set(p.relators) for name, p in v.items()}
    identity = {
        (e.source, e.target)
        for e in cube.edges
        if v[e.source].num_generators == v[e.target].num_generators
        and all(image == (i,) for i, image in enumerate(e.images, 1))
    }
    edges, faces = tietze_only_verify(cube, budget)
    edges = tuple(
        EdgeCheck(e.source, e.target, "exact", True)
        if (e.source, e.target) in identity and rels[e.source] <= rels[e.target]
        else e
        for e in edges
    )
    faces = tuple(
        FaceCheck(f.vertices, "Verified")
        if {(s, m1), (s, m2), (m1, k), (m2, k)} <= identity and rels[m1] | rels[m2] == rels[k]
        else f
        for f in faces
        for s, m1, m2, k in [f.vertices]
    )
    return edges, faces


def drop_total_relator(cube):
    """The cube with the last relator of ``total`` deleted and every map
    kept: the identities into ``total`` stay identities, but the faces into
    it no longer close up syntactically."""
    total = cube.vertices["total"]
    vertices = dict(cube.vertices)
    vertices["total"] = Presentation(total.num_generators, total.relators[:-1], total.names)
    return GroupTrisectionCube(vertices, cube.edges)


def cube_variants(cube):
    """The three corrupted-sector cubes and the cube without the last
    relator of ``total``."""
    sectors = ("sector_alpha_beta", "sector_beta_gamma", "sector_gamma_alpha")
    return [corrupt_sector(cube, s) for s in sectors] + [drop_total_relator(cube)]


def corrupt_sector(cube, sector):
    """Replace one sector vertex by <x | x^2>, rewiring its edges so the two
    downstream pushout faces still close up (incoming generators all map to
    x, outgoing x maps to the identity)."""
    z2 = Presentation(1, ((1, 1),), names=("x",))
    vertices = dict(cube.vertices)
    vertices[sector] = z2
    edges = []
    for e in cube.edges:
        if e.target == sector:
            edges.append(CubeEdge(e.source, e.target, tuple((1,) for _ in e.images)))
        elif e.source == sector:
            edges.append(CubeEdge(e.source, e.target, ((),)))
        else:
            edges.append(e)
    return GroupTrisectionCube(vertices, tuple(edges))


def assert_trusted(p):
    """``p`` was built unchecked: the public constructor accepts it and
    builds an equal presentation, and its abelianization is that of the
    dense relator matrix a checked ``IntMatrix`` holds."""
    assert Presentation(p.num_generators, p.relators, p.names) == p
    assert abelianize_presentation(p) == quotient_invariants(p.num_generators, relator_matrix(p))


def assert_cube_trusted(cube):
    """Every vertex, every face pushout, and their Tietze forms at budgets
    0, 3 and 10000, pass :func:`assert_trusted`."""
    v = cube.vertices
    built = list(v.values())
    for source, mid1, mid2, _ in CUBE_FACES:
        built.append(
            _pushout_presentation(
                v[mid1], v[mid2], cube.edge(source, mid1).images, cube.edge(source, mid2).images
            )
        )
    for p in built:
        assert_trusted(p)
        for budget in (0, 3, 10000):
            assert_trusted(tietze_simplify(p, budget))


@settings(max_examples=25, deadline=None)
@given(moved_diagrams(max_moves=6, torsion=True))
def test_presentations_built_unchecked_pass_the_public_check(d):
    assert_trusted(pi1_presentation(d))
    cube = build_cube(d)
    assert_cube_trusted(cube)
    assert_cube_trusted(unreduced_images(corrupt_sector(cube, "sector_beta_gamma")))


def test_raw_population_counts_match_raw_pi1_and_presentations_pass_the_public_check(raw_population):
    # raw enumeration over 2g generators stays cheap up to genus 2
    for d in raw_population:
        if d.genus <= 2:
            assert count_homs(pi1_presentation(d), 3) == diagram_hom_count(d, 3), serialize(d)
    for d in raw_population[::5]:
        assert_trusted(pi1_presentation(d))
        assert_cube_trusted(build_cube(d))


def unreduced_images(cube):
    """``cube`` with every image w written w w^-1 w, except that the
    surface's first generator goes to w w^-1, so the faces' identification
    relators need free reduction, and those from the surface reduce to
    nothing."""
    edges = tuple(
        CubeEdge(
            e.source,
            e.target,
            tuple(
                w + invert_word(w) + (() if i == 0 and e.source == "surface" else w)
                for i, w in enumerate(e.images)
            ),
        )
        for e in cube.edges
    )
    return GroupTrisectionCube(cube.vertices, edges)


def test_cube_edges_constant_is_a_cube():
    # each handlebody feeds exactly two sectors, each sector exactly one total
    out_degree = {}
    in_degree = {}
    for s, t in CUBE_EDGES:
        out_degree[s] = out_degree.get(s, 0) + 1
        in_degree[t] = in_degree.get(t, 0) + 1
    assert out_degree["surface"] == 3
    assert all(out_degree[f"handlebody_{f}"] == 2 for f in ("alpha", "beta", "gamma"))
    assert in_degree["total"] == 3
    # against the vertex table: each edge adds exactly one family, the edges
    # are every such covering pair once, and each face's sink carries the
    # union of its middle corners' families
    fams = {name: set(f) for name, f in groups._VERTEX_FAMILIES.items()}
    assert tuple(fams) == CUBE_VERTICES

    def covers(s, t):
        return fams[s] < fams[t] and len(fams[t] - fams[s]) == 1

    assert all(covers(s, t) for s, t in CUBE_EDGES)
    assert len(set(CUBE_EDGES)) == len(CUBE_EDGES)
    assert set(CUBE_EDGES) == {(s, t) for s in fams for t in fams if covers(s, t)}
    for source, mid1, mid2, sink in CUBE_FACES:
        assert {(source, mid1), (source, mid2), (mid1, sink), (mid2, sink)} <= set(CUBE_EDGES)
        assert fams[sink] == fams[mid1] | fams[mid2]


class TestR12:
    """A 12-times stabilized, 120-times slid S4.  Tietze trivializes its pi1
    with 244 shortening moves among its steps, 4 of them by budget 20."""

    @pytest.fixture(scope="class")
    def r12(self):
        return parse((FIXTURES / "r12.tri").read_text())

    def test_fixture_is_the_recipe(self, r12):
        assert serialize(r12_diagram()) == (FIXTURES / "r12.tri").read_text()
        assert sum(map(len, pi1_presentation(r12).relators)) == 9988

    def test_budget_20(self, r12):
        q = tietze_simplify(pi1_presentation(r12), 20)
        assert (q.num_generators, len(q.relators), max(map(len, q.relators))) == (8, 18, 3579)

    @pytest.mark.parametrize(
        "budget, digest",
        [
            (20, "461ecb7045a59852a845333cb149e893c8d408c542f6299b448253796bd10aed"),
            (100, "30a7c511403870733858456ad8b199c47ff1d99ec2a806582ba6afb56a5115a6"),
            # the trivial group, reached by budget 300
            (300, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
            (10_000, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        ],
    )
    def test_reduced_presentations_pinned(self, budget, digest):
        # the SHA-256 of `trisect pi1 r12.tri --simplify BUDGET`, as the loop
        # gave it before the list-based kill closure
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["pi1", str(FIXTURES / "r12.tri"), "--simplify", str(budget)]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    def test_mutant_simplify_budget_50_is_bounded(self):
        # r12.tri less words 2 and 1,230 of its alpha line, counting "alpha"
        # as word 0: its relators reach 44,789 letters, and comparing every
        # rotation of each took 42 s where a start at the least letter takes 5
        lines = []
        for line in (FIXTURES / "r12.tri").read_text().splitlines():
            words = line.split()
            if words and words[0] == "alpha":
                line = " ".join(words[:2] + words[3:1230] + words[1231:])
            lines.append(line + "\n")
        d = parse("".join(lines))
        start = time.perf_counter()
        q = tietze_simplify(pi1_presentation(d), 50)
        assert time.perf_counter() - start < 15
        assert (q.num_generators, len(q.relators), sum(map(len, q.relators))) == (5, 10, 10071)

    def test_poincare_check_trivializes_at_default_budget(self, r12):
        # with the letter-by-letter shortening scan this took 111 s
        start = time.perf_counter()
        assert poincare_candidate_check(r12).verdict == VERDICT_TRIVIAL_PI1
        assert time.perf_counter() - start < 30

    def test_homcount_s5_at_default_budget(self, r12):
        # the count `trisect homcount r12.tri --target s5` prints, from the
        # trivial group that the check above reduced this diagram's pi1 to
        assert diagram_hom_count(r12, 5) == 1
