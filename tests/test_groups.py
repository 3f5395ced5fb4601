import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import trisect.groups as groups
from conftest import moved_diagrams
from trisect.diagrams import FAMILY_NAMES, connected_sum, slide_family, stabilize, standard_diagram
from trisect.groups import (
    CUBE_EDGES,
    CUBE_FACES,
    CUBE_VERTICES,
    CubeEdge,
    EnumerationRefused,
    FaceCheck,
    GroupTrisectionCube,
    MalformedCubeError,
    Presentation,
    _check_edge,
    _pushout_presentation,
    abelianize_presentation,
    build_cube,
    count_homs,
    diagram_hom_count,
    pi1_presentation,
    presentation,
    relator_matrix,
    tietze_simplify,
    verify_cube,
)
from trisect.intmatrix import lattice_basis
from trisect.invariants import homology
from trisect.words import invert_word


def rel(*texts):
    """Relators over abstract generators written as signed tuples."""
    return [tuple(t) for t in texts]


COMMUTATOR = (1, 2, -1, -2)


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


def reference_tietze(p, budget):
    """The Tietze loop with every relator renormalized after every move."""
    n = p.num_generators
    names = list(p.generator_names())
    rels = groups._normalize_relators(p.relators)
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

            rels = groups._normalize_relators(
                tuple(renumber(t) for t in substitute(w)) for w in rels
            )
            names.pop(gen - 1)
            n -= 1
            steps += 1
            continue
        found = None
        for i, u in enumerate(rels):
            for j, v in enumerate(rels):
                if i != j and (cand := groups._shorten(u, v)) is not None:
                    found = (i, cand)
                    break
            if found:
                break
        if found is None:
            break
        i, cand = found
        rels[i] = cand
        rels = groups._normalize_relators(rels)
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

    def test_names(self):
        p = Presentation(2, (), names=("u", "v"))
        assert p.generator_names() == ("u", "v")
        assert Presentation(2, ()).generator_names() == ("x1", "x2")


class TestPi1:
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

    def test_abelianization_matches_h1(self, library):
        for d in library.values():
            assert abelianize_presentation(pi1_presentation(d)) == homology(d)[1]


class TestAbelianize:
    def test_examples(self):
        assert abelianize_presentation(presentation(2, [COMMUTATOR])) == (2, ())
        assert abelianize_presentation(presentation(1, [(1, 1)])) == (0, (2,))
        assert abelianize_presentation(
            pi1_presentation(standard_diagram("S1xS3"))
        ) == (1, ())


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
        report = verify_cube(build_cube(d), 1000)
        assert all(f.status == "Verified" for f in report.faces)
        assert calls["rotation"] <= 1000

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
        from trisect.invariants import k_triple

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

    def test_total_vertex_is_pi1(self, library):
        for name, d in library.items():
            assert build_cube(d).vertices["total"] == pi1_presentation(d), name

    def test_work_per_cube(self, monkeypatch):
        # each distinct sink is Tietze-reduced once, each target's relator
        # basis is built once, and identical reduced forms need no abelianization
        cube = build_cube(connected_sum(standard_diagram("S2xS2"), standard_diagram("CP2")))
        calls = Counter()
        for name in ("tietze_simplify", "abelianize_presentation", "lattice_basis"):

            def counted(*args, _fn=getattr(groups, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(groups, name, counted)
        report = verify_cube(cube, budget=1000)
        assert all(f.status == "Verified" for f in report.faces)
        assert calls["tietze_simplify"] <= 10
        assert calls["abelianize_presentation"] == 0
        assert calls["lattice_basis"] == 7

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(), st.sampled_from((0, 5, 1000)))
    def test_matches_reference_procedure(self, d, budget):
        # small budgets leave faces only homologically verified
        cube = build_cube(d)
        sectors = ("sector_alpha_beta", "sector_beta_gamma", "sector_gamma_alpha")
        for c in [cube] + [corrupt_sector(cube, s) for s in sectors]:
            report = verify_cube(c, budget)
            assert (report.edges, report.faces) == reference_verify(c, budget)

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


def reference_verify(cube, budget):
    """Edge and face checks by the plain procedure: a relator basis per edge,
    and each face abelianized raw before both sides are Tietze-reduced."""
    v = cube.vertices
    edges = tuple(
        _check_edge(e, v[e.source], v[e.target], lattice_basis(relator_matrix(v[e.target])))
        for e in cube.edges
    )
    faces = []
    for source, mid1, mid2, sink in CUBE_FACES:
        pushout = _pushout_presentation(
            v[source], v[mid1], v[mid2], cube.edge(source, mid1), cube.edge(source, mid2)
        )
        if abelianize_presentation(pushout) != abelianize_presentation(v[sink]):
            status = "Failed"
        else:
            left, right = tietze_simplify(pushout, budget), tietze_simplify(v[sink], budget)
            same = (left.num_generators, left.relators) == (right.num_generators, right.relators)
            status = "Verified" if same else "HomologicallyVerified"
        faces.append(FaceCheck((source, mid1, mid2, sink), status))
    return edges, tuple(faces)


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
