import ast
import dataclasses
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import trisect.cli as cli
import trisect.diagrams as diagrams_module
import trisect.groups as groups
import trisect.intmatrix as intmatrix_module
import trisect.invariants as invariants_module
from conftest import FIXTURES, determinant, moved_diagrams
from trisect.diagrams import (
    HeegaardDiagram,
    TrisectionDiagram,
    connected_sum,
    heegaard_diagram,
    heegaard_pairs,
    slide_family,
    stabilize,
    standard_diagram,
)
from test_cli_main import ladder_diagram
from test_intmatrix import symplectic_form
from trisect.intmatrix import IntMatrix, _smith, quotient_invariants, symplectic_pairing
from trisect.invariants import (
    FormInvariants,
    NotHomologicallyStandard,
    VERDICT_NOT_SPHERE,
    VERDICT_TRIVIAL_PI1,
    diagram_form_invariants,
    euler_characteristic,
    form_invariants,
    homology,
    intersection_form,
    k_triple,
    pair_k,
    poincare_candidate_check,
)
from trisect.textio import parse, serialize
from trisect.words import parse_word, token_code

Z = (1, ())
ZERO = (0, ())


def words(*texts):
    return [parse_word(t) for t in texts]


class TestPairK:
    @pytest.mark.parametrize("g,k", [(1, 0), (1, 1), (3, 0), (3, 2), (4, 4)])
    def test_boring_diagram(self, g, k):
        # k parallel pairs followed by g-k dual pairs
        first = [parse_word(f"a{i}") for i in range(1, g + 1)]
        second = [parse_word(f"a{i}") for i in range(1, k + 1)]
        second += [parse_word(f"b{i}") for i in range(k + 1, g + 1)]
        assert pair_k(heegaard_diagram(g, first, second)) == k

    def test_cp2_pairs(self):
        assert k_triple(standard_diagram("CP2")) == (0, 0, 0)

    def test_parallel_single_pair(self):
        assert pair_k(heegaard_diagram(1, words("a1"), words("a1"))) == 1

    def test_torsion_detected(self):
        # both systems are valid on their own, but the stack has index 2
        h = heegaard_diagram(1, words("a1"), words("a1 b1 b1"))
        assert h.second.matrix().rows == ((1, 2),)
        with pytest.raises(NotHomologicallyStandard) as exc:
            pair_k(h)
        assert exc.value.divisors == (2,)

    def test_k_triple_names_the_pair(self):
        d = standard_diagram("CP2")
        bad = type(d)(d.genus, d.alpha, d.beta, _forged_gamma())
        with pytest.raises(NotHomologicallyStandard) as exc:
            k_triple(bad)
        assert exc.value.pair_name == "beta_gamma"

    def test_k_triple_computed_once_per_diagram(self, monkeypatch):
        # the three pair matrices are built once and cached on the diagram;
        # homology and the form read them and build no pairing of their own
        d = connected_sum(standard_diagram("CP2"), standard_diagram("S1xS3"))
        calls = []
        real = diagrams_module._pairing
        monkeypatch.setattr(diagrams_module, "_pairing", lambda *args: calls.append(args) or real(*args))
        assert k_triple(d) == (1, 1, 1)
        assert k_triple(d) == (1, 1, 1)
        assert euler_characteristic(d) == 1
        assert len(calls) == 3
        assert homology(d) == (Z, Z, Z, Z, Z)
        intersection_form(d)
        assert len(calls) == 3

    def test_curve_smith_form_computed_once_per_diagram(self, monkeypatch):
        # homology and intersection_form share the divisors and kernel blocks
        # of one Smith form of the 2g x g matrix N of beta's pairings, cached
        # on the diagram; no 3g x 2g stacked curve matrix is reduced
        d = parse((FIXTURES / "cp2_sum_cp2bar.tri").read_text())
        shapes = []
        real = intmatrix_module._smith

        def counted(m, **kw):
            shapes.append((m.nrows, m.ncols))
            return real(m, **kw)

        for module in (diagrams_module, invariants_module):  # N's Smith form, then Q_K's
            monkeypatch.setattr(module, "_smith", counted)
        first = homology(d)
        intersection_form(d)
        assert homology(d) == first
        assert shapes.count((2 * d.genus, d.genus)) == 1
        assert (3 * d.genus, 2 * d.genus) not in shapes

    def test_nonstandard_pair_raises_on_every_call(self):
        d = parse((FIXTURES / "nonstandard_pair.tri").read_text())
        for _ in range(2):
            with pytest.raises(NotHomologicallyStandard) as exc:
                k_triple(d)
            assert exc.value.pair_name == "alpha_beta"
            assert exc.value.divisors == (2,)

    def test_k_triple_leaves_equality_hash_and_text(self):
        # every cached value is filled before the comparison with a twin that
        # has cached nothing past validation
        summed = connected_sum(standard_diagram("CP2"), standard_diagram("S2xS2"))
        text = serialize(slide_family(summed, "beta", 0, 2))
        d, twin = parse(text), parse(text)
        before = (hash(d), repr(d), serialize(d))
        for s in d.families():
            s.matrix()
        k_triple(d)
        homology(d)
        intersection_form(d)
        groups.reduced_pi1(d, 0)
        groups.reduced_pi1(d)
        assert {"_pair_matrices", "_k_triple", "_beta_kernel", "_reduced_pi1"} <= set(vars(d))
        assert len(d._reduced_pi1) == 2
        assert d == twin and twin == d
        assert (hash(d), repr(d), serialize(d)) == before
        assert hash(d) == hash(twin) and repr(d) == repr(twin) and serialize(d) == text
        for s in d.families():
            fresh = type(s)(s.genus, s.words)
            assert "_nonzeros" in vars(s) and "_nonzeros" not in vars(fresh)
            assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
        # dataclasses.replace builds a new object, so a k_triple cached on a
        # diagram does not answer for its copy with a forged gamma
        cp2 = parse((FIXTURES / "cp2.tri").read_text())
        assert k_triple(cp2) == (0, 0, 0)
        with pytest.raises(NotHomologicallyStandard) as exc:
            k_triple(dataclasses.replace(cp2, gamma=_forged_gamma()))
        assert exc.value.pair_name == "beta_gamma"


def reference_pair_k(h):
    """``pair_k`` as it was before it took the g x g pairing matrix: Smith
    invariants of the stacked 2g x 2g curve matrix, verbatim."""
    stacked = IntMatrix(h.first.matrix().rows + h.second.matrix().rows, 2 * h.genus)
    free, torsion = quotient_invariants(2 * h.genus, stacked)
    if torsion:
        raise NotHomologicallyStandard(torsion)
    return free


def _outcome(pair_rank, h):
    try:
        return pair_rank(h)
    except NotHomologicallyStandard as exc:
        return type(exc), exc.divisors, str(exc)


def _lagrangian_words(genus, transvections):
    """Words of a primitive Lagrangian: a_1..a_g moved by the symplectic
    transvections x -> x + <x, v> v, one word a^x b^y per row."""
    rows = [tuple(int(i == j) for j in range(2 * genus)) for i in range(genus)]
    for v in transvections:
        v = tuple(v[: 2 * genus])
        rows = [tuple(x + symplectic_pairing(r, v, genus) * y for x, y in zip(r, v)) for r in rows]
    out = []
    for r in rows:
        word = []
        for i in range(genus):
            for kind, e in (("a", r[i]), ("b", r[genus + i])):
                word += [token_code(kind, i + 1, inverted=e < 0)] * abs(e)
        out.append(tuple(word))
    return out


class TestPairKMatchesStackedReference:
    # pair_k reads H1 of a pair off its g x g intersection matrix; the
    # reference takes the 2g x 2g stacked curve matrix

    @settings(max_examples=60, deadline=None)
    @given(moved_diagrams(torsion=True))
    def test_moved_diagram_pairs(self, d):
        for h in heegaard_pairs(d):
            assert _outcome(pair_k, h) == _outcome(reference_pair_k, h)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_lagrangian_pairs(self, data):
        # two primitive Lagrangians in general position: torsion and any
        # free rank 0..g come up
        genus = data.draw(st.integers(min_value=1, max_value=4))
        vectors = st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8), max_size=4)
        h = heegaard_diagram(
            genus,
            _lagrangian_words(genus, data.draw(vectors)),
            _lagrangian_words(genus, data.draw(vectors)),
        )
        assert _outcome(pair_k, h) == _outcome(reference_pair_k, h)

    def test_pinned_pairs(self):
        torsion = heegaard_diagram(1, words("a1"), words("a1 b1 b1"))
        nonstandard = heegaard_pairs(parse((FIXTURES / "nonstandard_pair.tri").read_text()))[0]
        d = standard_diagram("CP2")
        forged = _forged_gamma()  # imprimitive, so only the other side is a cut system
        pairs = [torsion, nonstandard, HeegaardDiagram(1, d.beta, forged), HeegaardDiagram(1, forged, d.alpha)]
        for h in pairs:
            assert _outcome(pair_k, h) == _outcome(reference_pair_k, h)
            assert _outcome(pair_k, h)[1] == (2,)

    def test_k_triple_takes_no_stacked_smith_form(self, monkeypatch):
        # one divisor call per g x g pair matrix, on its sparse rows; unit
        # pivots take every row, so no dense Smith form runs
        d = slide_family(connected_sum(standard_diagram("CP2"), standard_diagram("S1xS3")), "beta", 1, 0)
        shapes, dense = [], []
        real = intmatrix_module._smith_divisors

        def counted(rows):
            rows = [tuple(r) for r in rows]
            shapes.append((len(rows), max((k + 1 for r in rows for k, _ in r), default=0)))
            return real(rows)

        monkeypatch.setattr(intmatrix_module, "_smith_divisors", counted)
        monkeypatch.setattr(intmatrix_module, "_smith", lambda *a, **kw: dense.append(a))
        assert k_triple(d) == (1, 1, 1)
        assert len(shapes) == 3 and all(r == d.genus and c <= d.genus for r, c in shapes)
        assert dense == []


def _forged_gamma():
    # bypasses validation on purpose: (2,2) is Lagrangian but imprimitive
    from trisect.diagrams import CutSystem

    forged = CutSystem(1, (parse_word("a1 b1 a1 b1"),))
    assert forged.matrix().rows == ((2, 2),)
    return forged


class TestEulerAndHomology:
    def test_euler_examples(self):
        assert euler_characteristic(standard_diagram("S4")) == 2
        assert euler_characteristic(standard_diagram("CP2")) == 3
        assert euler_characteristic(standard_diagram("S1xS3")) == 0

    def test_homology_examples(self):
        assert homology(standard_diagram("CP2")) == (Z, ZERO, Z, ZERO, Z)
        assert homology(standard_diagram("S1xS3")) == (Z, Z, ZERO, Z, Z)
        assert homology(standard_diagram("S4")) == (Z, ZERO, ZERO, ZERO, Z)

    def test_duality(self, library):
        for d in library.values():
            h = homology(d)
            assert h[1][0] == h[3][0]  # b1 = b3
            assert h[2][1] == h[1][1]  # torsion H2 = torsion H1
            assert h[3][1] == ()  # H3 torsion free


class TestIntersectionForm:
    def test_cp2(self):
        assert intersection_form(standard_diagram("CP2")) == IntMatrix([[1]])

    def test_cp2bar(self):
        assert intersection_form(standard_diagram("CP2BAR")) == IntMatrix([[-1]])

    def test_empty_forms(self):
        assert intersection_form(standard_diagram("S4")).nrows == 0
        assert intersection_form(standard_diagram("S1xS3")).nrows == 0

    def test_connected_sum_form(self):
        d = connected_sum(standard_diagram("CP2"), standard_diagram("CP2BAR"))
        inv = form_invariants(intersection_form(d))
        assert inv == FormInvariants(rank=2, signature=0, parity="odd")

    def test_s2xs2_hyperbolic(self):
        q = intersection_form(standard_diagram("S2xS2"))
        assert q == IntMatrix([[0, 1], [1, 0]])
        assert form_invariants(q) == FormInvariants(rank=2, signature=0, parity="even")

    def test_rank_matches_b2(self, library):
        for d in library.values():
            assert form_invariants(intersection_form(d)).rank == homology(d)[2][0]

    def test_more_connected_sums(self):
        # forms of connected sums are block sums, so these are independent
        # hand values: rank/signature add, parity is even only if all parts are
        cp2 = standard_diagram("CP2")
        cp2bar = standard_diagram("CP2BAR")
        s2s2 = standard_diagram("S2xS2")
        s1s3 = standard_diagram("S1xS3")
        cases = [
            (connected_sum(cp2, cp2), FormInvariants(2, 2, "odd")),
            (connected_sum(s2s2, s2s2), FormInvariants(4, 0, "even")),
            (connected_sum(s2s2, cp2bar), FormInvariants(3, -1, "odd")),
            (connected_sum(connected_sum(cp2, cp2), cp2bar), FormInvariants(3, 1, "odd")),
            (connected_sum(s1s3, cp2), FormInvariants(1, 1, "odd")),
        ]
        for d, expected in cases:
            assert form_invariants(intersection_form(d)) == expected

    def test_mixed_b1_homology(self):
        s1s3 = standard_diagram("S1xS3")
        d = connected_sum(s1s3, s1s3)
        assert euler_characteristic(d) == -2
        assert homology(d) == (Z, (2, ()), ZERO, (2, ()), Z)

    def test_form_unimodular(self, library):
        for d in library.values():
            q = intersection_form(d)
            assert determinant(q) in (1, -1) or q.nrows == 0


class TestFormProperties:
    # h1_torsion.tri is a summand: the form lives on H2 / Tors, so torsion in
    # H1 and H2 changes none of these properties
    @settings(max_examples=60, deadline=None)
    @given(moved_diagrams(torsion=True))
    def test_unimodular_with_rank_b2(self, d):
        q = intersection_form(d)
        assert q == q.transpose()
        assert abs(determinant(q)) == 1
        inv = form_invariants(q)
        assert inv.rank == q.nrows == homology(d)[2][0]
        if inv.parity == "even":  # van der Blij
            assert inv.signature % 8 == 0

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(torsion=True))
    def test_family_permutations(self, d):
        # rotating the families keeps the orientation; swapping two reverses it
        inv = form_invariants(intersection_form(d))
        rotated = TrisectionDiagram(d.genus, d.beta, d.gamma, d.alpha)
        assert form_invariants(intersection_form(rotated)) == inv
        swapped = TrisectionDiagram(d.genus, d.beta, d.alpha, d.gamma)
        reversed_inv = FormInvariants(inv.rank, -inv.signature, inv.parity)
        assert form_invariants(intersection_form(swapped)) == reversed_inv

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(torsion=True), moved_diagrams(torsion=True))
    def test_additive_under_sum(self, d1, d2):
        # the form of a connected sum is the block sum of the forms
        inv1, inv2 = (form_invariants(intersection_form(d)) for d in (d1, d2))
        parity = "even" if inv1.parity == inv2.parity == "even" else "odd"
        expected = FormInvariants(inv1.rank + inv2.rank, inv1.signature + inv2.signature, parity)
        assert form_invariants(intersection_form(connected_sum(d1, d2))) == expected


def dense_kernel_form(d):
    """Q_K by the dense formula X J Y_alpha^T on the kernel K of
    N = [-L_alpha; L_gamma] J L_beta^T, the rows of U past the rank in N's
    Smith form: a row z = (z_alpha, z_gamma) lifts x = z_gamma L_gamma -
    z_alpha L_alpha, whose alpha-part is -z_alpha L_alpha."""
    g = d.genus
    la, lb, lc = d.alpha.matrix(), d.beta.matrix(), d.gamma.matrix()
    sides = IntMatrix([[-c for c in r] for r in la.rows] + list(lc.rows), 2 * g)
    divisors, u = _smith(sides @ symplectic_form(g) @ lb.transpose(), with_u=True)
    kern = IntMatrix(u.rows[len(divisors) :], 2 * g)
    lifts = kern @ sides
    alpha_parts = IntMatrix([[-c for c in z[:g]] for z in kern.rows], g) @ la
    return lifts @ symplectic_form(g) @ alpha_parts.transpose()


def stacked_kernel_form(d):
    """Q_K by the same dense formula on the kernel of the stacked curve
    matrix [L_beta; L_alpha; L_gamma], whose row (z_beta, z_alpha, z_gamma)
    lifts x = z_beta L_beta with alpha-part -z_alpha L_alpha."""
    g = d.genus
    la, lb = d.alpha.matrix(), d.beta.matrix()
    divisors, u = _smith(IntMatrix(lb.rows + la.rows + d.gamma.matrix().rows, 2 * g), with_u=True)
    kern = u.rows[len(divisors) :]
    lifts = IntMatrix([z[:g] for z in kern], g) @ lb
    alpha_parts = IntMatrix([[-c for c in z[g : 2 * g]] for z in kern], g) @ la
    return lifts @ symplectic_form(g) @ alpha_parts.transpose()


def reference_form(d):
    """The dense Q_K on the complement of its radical spanned by the first
    rows of U in its Smith form."""
    qk = dense_kernel_form(d)
    divisors, u = _smith(qk, with_u=True)
    basis = IntMatrix(u.rows[: len(divisors)], qk.nrows)
    return basis @ qk @ basis.transpose()


class TestFormReference:
    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(torsion=True), moved_diagrams(torsion=True))
    def test_beta_kernel_is_the_reference_kernel(self, d1, d2):
        # N's cache holds the divisors of a reference Smith form of N, built
        # from the dense rows, and the alpha and gamma blocks of the rows of
        # its U past the rank
        for d in (d1, connected_sum(d1, d2)):
            g = d.genus
            a, b, c = (s.matrix().rows for s in d.families())
            n = [[symplectic_pairing(y, x, g) for y in b] for x in a]
            n += [[symplectic_pairing(z, y, g) for y in b] for z in c]
            divisors, u = _smith(IntMatrix(n, g), with_u=True)
            kern = u.rows[len(divisors) :]
            blocks = IntMatrix([z[:g] for z in kern], g), IntMatrix([z[g:] for z in kern], g)
            assert d._beta_kernel == (divisors, *blocks)

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(torsion=True), moved_diagrams(torsion=True))
    def test_moved_and_summed(self, d1, d2):
        # the kept alpha-gamma matrix pulled back to N's kernel is the same
        # integer matrix as the dense product through J of the lifts in
        # L_beta; the stacked kernel is another basis of the same lattice,
        # so only the invariants of its Q_K agree
        for d in (d1, connected_sum(d1, d2)):
            q = intersection_form(d)
            assert q == reference_form(d)
            assert form_invariants(q) == form_invariants(dense_kernel_form(d))
            assert form_invariants(q) == form_invariants(stacked_kernel_form(d))


def test_raw_population_caches_agree_in_either_order_and_h1_is_abelianized_pi1(raw_population):
    # twins parsed from one text fill their cached values in opposite orders
    for d in raw_population:
        text = serialize(d)
        forward, backward = parse(text), parse(text)
        got = (k_triple(forward), homology(forward), intersection_form(forward))
        q, h, k = intersection_form(backward), homology(backward), k_triple(backward)
        assert got == (k, h, q), text
        assert groups.abelianize_presentation(groups.pi1_presentation(d)) == h[1], text


class TestFormRuntimeChecks:
    # each runtime check of intersection_form refuses a forged pairing or b2
    def slid_sum(self):
        summed = connected_sum(standard_diagram("CP2"), standard_diagram("S2xS2"))
        return slide_family(summed, "beta", 1, 0)

    # each test takes k_triple before it installs its forgery, so the forged
    # pair matrices reach homology and the form and not the pair ranks,
    # which share them; N's divisors and kernel blocks are not cached yet,
    # so they are taken from the forged matrices

    def forge(self, monkeypatch, d, edit):
        k_triple(d)
        assert "_beta_kernel" not in vars(d)
        kept = [[list(row) for row in m.rows] for m in d._pair_matrices]
        edit(kept)
        forged = tuple(IntMatrix(rows, d.genus) for rows in kept)
        monkeypatch.setitem(vars(d), "_pair_matrices", forged)

    def assert_refused(self, monkeypatch, capsys, d, match):
        # the form's route and the invariants report's route through Q_K
        # both refuse, and so does the CLI, with exit 1 and one error line
        messages = set()
        for route in (intersection_form, diagram_form_invariants):
            with pytest.raises(ArithmeticError, match=match) as exc:
                route(d)
            messages.add(str(exc.value))
        (message,) = messages
        monkeypatch.setattr(cli, "_read_trisection", lambda path: d)
        for command in ("invariants", "form"):
            assert cli.main([command, "forged.tri"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_unimodularity(self, monkeypatch, capsys):
        # every intersection number doubled
        d = self.slid_sum()

        def double(kept):
            for rows in kept:
                for row in rows:
                    row[:] = [2 * x for x in row]

        self.forge(monkeypatch, d, double)
        self.assert_refused(monkeypatch, capsys, d, "not unimodular")

    def test_rank_b2(self, monkeypatch, capsys):
        real = invariants_module.euler_characteristic
        monkeypatch.setattr(invariants_module, "euler_characteristic", lambda d: real(d) + 1)
        self.assert_refused(monkeypatch, capsys, self.slid_sum(), "rank b2")

    def test_symmetry(self, monkeypatch, capsys):
        # <beta_1, alpha_1> raised by one in P_ab, so beta's pairing map no
        # longer kills every lift the kernel of N gives
        d = self.slid_sum()

        def bump(kept):
            kept[0][0][0] += 1

        self.forge(monkeypatch, d, bump)
        self.assert_refused(monkeypatch, capsys, d, "not symmetric")


def _e8_form():
    """Chain 1..7 with node 8 hanging off node 5: the rank-8 even unimodular
    positive definite form."""
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)]
    rows = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    return IntMatrix(rows)


E8 = _e8_form()


class TestFormInvariants:
    def test_examples(self):
        assert form_invariants(IntMatrix([[1]])) == FormInvariants(1, 1, "odd")
        assert form_invariants(IntMatrix([[1, 0], [0, -1]])) == FormInvariants(2, 0, "odd")
        assert form_invariants(IntMatrix([[0, 1], [1, 0]])) == FormInvariants(2, 0, "even")

    def test_empty(self):
        assert form_invariants(IntMatrix([], ncols=0)) == FormInvariants(0, 0, "even")

    def test_degenerate_and_indefinite(self):
        assert form_invariants(IntMatrix([[2, 0], [0, 0]])) == FormInvariants(1, 1, "even")
        assert form_invariants(IntMatrix([[2, 1], [1, -3]])) == FormInvariants(2, 0, "odd")

    def test_e8_lattice_form(self):
        assert determinant(E8) == 1
        assert form_invariants(E8) == FormInvariants(8, 8, "even")

    def test_two_hyperbolic_blocks(self):
        h = [[0, 1], [1, 0]]
        q = IntMatrix(
            [
                h[0] + [0, 0],
                h[1] + [0, 0],
                [0, 0] + h[0],
                [0, 0] + h[1],
            ]
        )
        assert form_invariants(q) == FormInvariants(4, 0, "even")

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            form_invariants(IntMatrix([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            form_invariants(IntMatrix([[1, 2, 3]]))

    def test_signature_against_random_congruence(self):
        # invariance under basis change: P^T Q P has the same invariants
        rng = random.Random(11)
        q = IntMatrix([[0, 1], [1, 0]])
        base = form_invariants(q)
        for _ in range(25):
            p = _random_unimodular(rng, 2)
            conj = p.transpose() @ q @ p
            assert form_invariants(conj) == base


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return IntMatrix(rows, n)


def reference_form_invariants(q):
    """The dense congruence diagonalization that ``form_invariants`` replaced,
    kept as its reference: the same +-1-first pivot rule, hyperbolic-pair
    repair and |p|-scaling with a gcd pass, on list rows, slicing the
    pivot's row and column out of every row at every step."""
    m = [list(row) for row in q.rows]
    rank = signature = 0
    while m:
        n = len(m)
        piv = next((i for i in range(n) if m[i][i] in (1, -1)), None)
        if piv is None:
            piv = next((i for i in range(n) if m[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]), None)
            if off is None:
                break
            i, j = off
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            piv = i
        p = m[piv][piv]
        sign, scale = (1 if p > 0 else -1), abs(p)
        rank += 1
        signature += sign
        v = m[piv][:piv] + m[piv][piv + 1 :]
        rest = [row[:piv] + row[piv + 1 :] for i, row in enumerate(m) if i != piv]
        m = [
            [scale * x - sign * vi * vj for x, vj in zip(row, v)] if vi or scale > 1 else row
            for row, vi in zip(rest, v)
        ]
        if scale > 1 and (div := math.gcd(*(x for row in m for x in row))) > 1:
            m = [[x // div for x in row] for row in m]
    parity = "even" if all(row[i] % 2 == 0 for i, row in enumerate(q.rows)) else "odd"
    return FormInvariants(rank, signature, parity)


OFF_DIAGONAL = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -5))
SPARSE_OFF_DIAGONAL = st.sampled_from((0,) * 9 + (1, -1, 1, -1, 2, -3))
DIAGONALS = {
    "zero": st.just(0),  # every pivot comes from the hyperbolic repair
    "non_unit": st.sampled_from((2, -2, 3, -3, 4, -6)),  # never a unit pivot at the start
    "mixed": st.sampled_from((0, 1, -1, 2, -2, 3, -4)),
    "even": st.sampled_from((0, 2, -2, 4)),  # an even form: no unit pivot ever
    "sparse": st.sampled_from((0, 0, 1, -1, 2)),  # unit pivots touching few rows, which empty
}


def _direct_sum(*blocks):
    n = sum(b.nrows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(r) + [0] * (n - at - b.nrows) for r in b.rows]
        at += b.nrows
    return IntMatrix(rows, n)


HYPERBOLIC = IntMatrix([[0, 1], [1, 0]])


@st.composite
def symmetric_forms(draw):
    """Symmetric forms of every kind the diagonalization branches on: a
    degenerate B D B^T of rank below its size (a nonzero radical), and
    full-size forms whose diagonal is zero, non-unit, mixed or even, or
    whose entries are mostly zero."""
    kind = draw(st.sampled_from(("degenerate",) + tuple(DIAGONALS)))
    n = draw(st.integers(1 if kind == "degenerate" else 0, 10 if kind == "sparse" else 7))
    if kind == "degenerate":
        k = draw(st.integers(0, n - 1))
        b = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) for _ in range(n)]
        diag = draw(st.lists(st.sampled_from((1, -1, 2, -2, 3)), min_size=k, max_size=k))
        rows = [[sum(x * c * y for x, c, y in zip(bi, diag, bj)) for bj in b] for bi in b]
    else:
        off = SPARSE_OFF_DIAGONAL if kind == "sparse" else OFF_DIAGONAL
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(DIAGONALS[kind])
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(off)
    return kind, IntMatrix(rows, n)


@settings(max_examples=400)
@given(symmetric_forms())
@example(("even", E8))
@example(("even", _direct_sum(E8, HYPERBOLIC)))
@example(("zero", _direct_sum(HYPERBOLIC, HYPERBOLIC)))
@example(("zero", IntMatrix([], ncols=0)))
@example(("degenerate", _direct_sum(E8, IntMatrix([[0]]), HYPERBOLIC)))
def test_form_invariants_match_reference(case):
    # the sparse elimination against the dense one it replaced, with the
    # same pivot rule: rank and signature are congruence invariants and
    # positive scalings keep them, so both routines must agree
    kind, q = case
    inv = form_invariants(q)
    assert inv == reference_form_invariants(q)
    if kind == "degenerate":
        assert inv.rank < q.nrows
    if kind == "even":
        assert inv.parity == "even"


def test_form_invariants_match_reference_on_raw_population(raw_population):
    # Q_K and the Gram matrix of diagrams built from raw curve words
    for d in raw_population:
        for q in (invariants_module._kernel_form(d)[0], intersection_form(d)):
            assert form_invariants(q) == reference_form_invariants(q), serialize(d)


@settings(max_examples=60, deadline=None)
@given(moved_diagrams(torsion=True))
def test_form_invariants_match_reference_on_moved_diagrams(d):
    for q in (invariants_module._kernel_form(d)[0], intersection_form(d)):
        assert form_invariants(q) == reference_form_invariants(q)
    assert diagram_form_invariants(d) == form_invariants(intersection_form(d))


def test_genus_32_ladder_form_invariants_pinned():
    q = intersection_form(ladder_diagram(32, seed=32))
    assert form_invariants(q) == reference_form_invariants(q) == FormInvariants(28, 4, "odd")


class TestMoveInvariance:
    def test_slide_on_stabilized_cp2_gamma(self):
        # genus 1 has nothing to slide over; after one stabilization the
        # gamma family has two curves and slides must not move any invariant
        from trisect.diagrams import slide_family, stabilize
        from trisect.groups import diagram_hom_count

        d = stabilize(standard_diagram("CP2"), "beta")
        base = (
            euler_characteristic(d),
            homology(d),
            form_invariants(intersection_form(d)),
            diagram_hom_count(d, 3),
        )
        slid = slide_family(d, "gamma", 0, 1, parse_word("b1"), -1)
        got = (
            euler_characteristic(slid),
            homology(slid),
            form_invariants(intersection_form(slid)),
            diagram_hom_count(slid, 3),
        )
        assert got == base

    def test_invariants_stable_under_moves(self, library, move_engine):
        rng = random.Random(7)
        for name, d in library.items():
            base = (
                euler_characteristic(d),
                homology(d),
                form_invariants(intersection_form(d)),
            )
            for _ in range(10):
                moved, stabs = move_engine(d, rng)
                assert moved.genus == d.genus + sum(stabs.values())
                got = (
                    euler_characteristic(moved),
                    homology(moved),
                    form_invariants(intersection_form(moved)),
                )
                assert got == base, name


class TestPoincare:
    def test_s4(self):
        report = poincare_candidate_check(standard_diagram("S4"))
        assert report.homology_matches_s4 and report.pi1_trivialized
        assert report.verdict == VERDICT_TRIVIAL_PI1

    def test_cp2(self):
        report = poincare_candidate_check(standard_diagram("CP2"))
        assert not report.homology_matches_s4
        assert report.verdict == VERDICT_NOT_SPHERE

    def test_triple_stabilized_s4(self):
        d = standard_diagram("S4")
        for fam in ("alpha", "beta", "gamma"):
            d = stabilize(d, fam)
        report = poincare_candidate_check(d)
        assert report.verdict == VERDICT_TRIVIAL_PI1

    def test_shares_one_reduction_with_hom_counts(self, monkeypatch):
        d = standard_diagram("S4")
        for fam in ("alpha", "beta", "gamma"):
            d = stabilize(d, fam)
        d = slide_family(d, "gamma", 0, 2, (1,))
        budgets = []
        real = groups.tietze_simplify
        monkeypatch.setattr(groups, "tietze_simplify", lambda p, b: budgets.append(b) or real(p, b))
        assert poincare_candidate_check(d).verdict == VERDICT_TRIVIAL_PI1
        assert groups.diagram_hom_count(d, 3) == 1
        assert groups.diagram_hom_count(d, 5) == 1
        assert budgets == [invariants_module.DEFAULT_TIETZE_BUDGET]
        assert poincare_candidate_check(d, tietze_budget=2).homology_matches_s4
        assert budgets == [invariants_module.DEFAULT_TIETZE_BUDGET, 2]

    def test_never_raises_on_nonstandard_pairs(self):
        d = standard_diagram("CP2")
        bad = type(d)(d.genus, d.alpha, d.beta, _forged_gamma())
        report = poincare_candidate_check(bad)
        assert not report.homology_matches_s4
        assert report.verdict == VERDICT_NOT_SPHERE


@pytest.mark.parametrize("first", ["trisect.invariants", "trisect.groups"])
def test_each_module_imports_first_in_a_fresh_interpreter(first):
    code = f"import {first}; from trisect.invariants import DEFAULT_TIETZE_BUDGET, poincare_candidate_check"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_groups_imports_nothing_from_invariants():
    # the Tietze budget lives with Tietze, and build_cube reads the cached
    # k-triple, so invariants imports groups and not the other way round
    tree = ast.parse(Path(groups.__file__).read_text(encoding="utf-8"))
    sources = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "invariants" not in sources and "trisect.invariants" not in sources
    assert invariants_module.DEFAULT_TIETZE_BUDGET is groups.DEFAULT_TIETZE_BUDGET
