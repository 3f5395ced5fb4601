import random
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import trisect.diagrams
from conftest import FIXTURES, moved_diagrams, random_move_sequence
from trisect.diagrams import (
    CutSystem,
    InvalidCutSystemError,
    TrisectionDiagram,
    connected_sum,
    cut_system,
    handle_slide,
    heegaard_pairs,
    slide_family,
    stabilize,
    standard_diagram,
    trisection_diagram,
)
from trisect.intmatrix import IntMatrix, symplectic_pairing
from trisect.invariants import form_invariants, homology, intersection_form, k_triple
from trisect.textio import parse, serialize
from trisect.words import abelianize_word, cyclic_reduce, free_reduce, invert_word, max_index, parse_word


def words(*texts):
    return [parse_word(t) for t in texts]


@st.composite
def curve_words_in_range(draw):
    """A genus 2-4 and that many short words in its letters, most of which
    fail the Lagrangian check."""
    genus = draw(st.integers(2, 4))
    letter = st.sampled_from([c for i in range(1, 2 * genus + 1) for c in (i, -i)])
    return genus, draw(st.lists(st.lists(letter, max_size=4), min_size=genus, max_size=genus))


@st.composite
def curve_words_past_genus(draw):
    """A genus 0-3 and the genus's number of short words whose letters reach
    two indices past it, so some words, not always the first, are out of range."""
    genus = draw(st.integers(0, 3))
    letter = st.sampled_from([c for i in range(1, 2 * genus + 5) for c in (i, -i)])
    return genus, draw(st.lists(st.lists(letter, max_size=4), min_size=genus, max_size=genus))


class TestValidation:
    def test_disjoint_basis_curves(self):
        sys = cut_system(words("a1", "a2"), 2)
        assert sys.matrix() == IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_diagonal_curve(self):
        sys = cut_system(words("a1 b1"), 1)
        assert sys.matrix().rows == ((1, 1),)

    def test_imprimitive_curve(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1 a1"), 1)
        assert exc.value.reason == "imprimitive"
        assert exc.value.divisors == (2,)

    def test_wrong_count(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1"), 2)
        assert exc.value.reason == "count"
        with pytest.raises(InvalidCutSystemError) as exc:  # the count comes before the index
            cut_system(words("a9"), 2)
        assert exc.value.reason == "count"

    def test_index_out_of_range(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a2"), 1)
        assert exc.value.reason == "index"
        # the first word out of range is named by its largest index, before
        # curves 1 and 2 fail the Lagrangian check, and a later word with a
        # larger index is not the one named
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1 b3 A4", "b1", "a9"), 3, family="gamma")
        assert exc.value.reason == "index"
        assert str(exc.value) == "gamma: token index 4 exceeds genus 3"

    @settings(max_examples=200)
    @given(curve_words_past_genus())
    def test_index_error_matches_max_index_pass(self, case):
        # the letter table refuses what the separate max_index pass refused,
        # with the same message, and only that
        genus, curve_words = case
        reduced = [cyclic_reduce(w) for w in curve_words]
        expected = next(
            (f"token index {max_index(w)} exceeds genus {genus}" for w in reduced if max_index(w) > genus), None
        )
        try:
            cut_system(curve_words, genus)
            raised = None
        except InvalidCutSystemError as exc:
            raised = (exc.reason, str(exc))
        if expected is None:
            assert raised is None or raised[0] in ("lagrangian", "imprimitive")
        else:
            assert raised == ("index", expected)

    def test_unchecked_cut_system_past_genus_raises_value_error(self):
        # a CutSystem built without validation refuses a letter past its
        # genus when its rows are first read, as a ValueError, never a KeyError
        for word in ((3,), (1, -4)):
            s = CutSystem(1, (word,))
            d = TrisectionDiagram(1, s, s, s)
            for read in (s.matrix, lambda: s._nonzeros, lambda: k_triple(d)):
                with pytest.raises(ValueError, match="^token index 2 exceeds genus 1$"):
                    read()

    def test_non_lagrangian_pair_reported(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1", "b1 a2"), 2)
        assert exc.value.reason == "lagrangian"
        assert exc.value.pair == (1, 2)
        assert exc.value.value == 1

    def test_lagrangian_error_names_first_pair_in_row_order(self):
        # (2, 3) and (1, 4) both pair nonzero; row-major order over the upper
        # triangle reaches (1, 4) first, column-major order would name (2, 3)
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1", "a2", "b2", "B1 B1"), 4, family="beta")
        assert exc.value.reason == "lagrangian"
        assert (exc.value.pair, exc.value.value) == ((1, 4), -2)
        assert str(exc.value) == "beta: curves 1 and 4 have intersection number -2"

    @settings(max_examples=150)
    @given(curve_words_in_range())
    def test_lagrangian_error_matches_pairing_loop(self, case):
        # the first nonzero pair in the order (1, 2), (1, 3), ..., (2, 3), ...
        genus, curve_words = case
        rows = [abelianize_word(w, genus) for w in curve_words]
        first = next(
            (
                ("lagrangian", (i + 1, j + 1), symplectic_pairing(rows[i], rows[j], genus))
                for i in range(genus)
                for j in range(i + 1, genus)
                if symplectic_pairing(rows[i], rows[j], genus)
            ),
            None,
        )
        try:
            cut_system(curve_words, genus)
            raised = None
        except InvalidCutSystemError as exc:
            raised = (exc.reason, exc.pair, exc.value)
        if first is None:
            assert raised in (None, ("imprimitive", None, None))
        else:
            assert raised == first

    def test_rank_deficient_family(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1", "a1"), 2)
        assert exc.value.reason == "imprimitive"

    def test_genus_zero(self):
        assert cut_system([], 0).words == ()

    def test_curves_stored_cyclically_reduced(self):
        sys = cut_system([parse_word("A2 a1 a2")], 1)
        assert sys.words == (parse_word("a1"),)


def reference_slid_word(wi, wj, conjugator, sign):
    """Curve i's word after a slide, with the conjugate c * w_j^sign * c^-1
    freely reduced on its own before it is appended and the whole reduced."""
    c = tuple(conjugator)
    conjugate = free_reduce(c + (wj if sign == 1 else invert_word(wj)) + invert_word(c))
    return cyclic_reduce(wi + conjugate)


class TestHandleSlide:
    def test_basic_slide(self):
        sys = cut_system(words("a1", "a2"), 2)
        out = handle_slide(sys, 0, 1)
        assert out.words == (parse_word("a1 a2"), parse_word("a2"))
        assert out.matrix() == IntMatrix([[1, 1, 0, 0], [0, 1, 0, 0]])

    def test_slide_back_restores_homology(self):
        sys = cut_system(words("a1 b1", "a2 B2"), 2)
        conj = parse_word("b1")
        there = handle_slide(sys, 0, 1, conj, 1)
        back = handle_slide(there, 0, 1, conj, -1)
        assert back.matrix() == sys.matrix()

    def test_errors(self):
        sys = cut_system(words("a1", "a2"), 2)
        with pytest.raises(ValueError):
            handle_slide(sys, 0, 0)
        with pytest.raises(ValueError):
            handle_slide(sys, 0, 2)
        with pytest.raises(ValueError):
            handle_slide(sys, 0, 1, sign=2)
        with pytest.raises(ValueError):
            handle_slide(sys, 0, 1, conjugator=parse_word("a3"))

    def test_unreduced_conjugator(self):
        sys = cut_system(words("a1 b1", "a2 B2"), 2)
        out = handle_slide(sys, 0, 1, parse_word("a1 A1 b2"))
        assert out.words[0] == parse_word("a1 b1 b2 a2 B2 B2")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_slid_word_matches_reduced_conjugate(self, data):
        # the slide reduces w_i c w_j^sign c^-1 in one pass; free reduction is
        # confluent, so that equals reducing the conjugate first, also for
        # conjugators that are not reduced themselves
        g = 3
        letter = st.sampled_from([c for i in range(1, 2 * g + 1) for c in (i, -i)])
        sys = cut_system(words("a1 b1", "a2 B2", "a3"), g)
        for _ in range(data.draw(st.integers(1, 6))):
            i, j = data.draw(st.permutations(range(g)))[:2]
            x = data.draw(letter)
            conj = (*data.draw(st.lists(letter, max_size=3)), x, -x, *data.draw(st.lists(letter, max_size=3)))
            sign = data.draw(st.sampled_from((1, -1)))
            expected = reference_slid_word(sys.words[i], sys.words[j], conj, sign)
            sys = handle_slide(sys, i, j, conj, sign)
            assert sys.words[i] == expected

    def test_random_slides_preserve_validity(self):
        # row operations keep the span Lagrangian and primitive, so a slide
        # builds its result without validation; check each step's rows
        # against cut_system and its pairings directly.
        # (word lengths roughly add per slide, so keep the chain short)
        rng = random.Random(21)
        sys = cut_system(words("a1 b1", "a2 B2", "a3"), 3)
        for _ in range(18):
            i, j = rng.sample(range(3), 2)
            conj = tuple(
                rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(rng.randint(0, 2))
            )
            sys = handle_slide(sys, i, j, conj, rng.choice((1, -1)))
            assert sys == cut_system(sys.words, 3)
            rows = sys.matrix().rows
            assert rows == tuple(abelianize_word(w, 3) for w in sys.words)
            pairs = [symplectic_pairing(rows[i], rows[j], 3) for i in range(3) for j in range(3)]
            assert set(pairs) == {0}


class TestMovesBuildCutSystems:
    """Moves build their cut systems without validating; the results must
    equal what validation from the words alone gives."""

    @settings(max_examples=60, deadline=None)
    @given(moved_diagrams(max_moves=6), moved_diagrams(max_moves=6), st.integers(0, 2**32))
    def test_families_equal_validated_rebuild(self, d1, d2, seed):
        total = connected_sum(d1, d2)
        moved = random_move_sequence(total, random.Random(seed), max_moves=6)[0]
        for d in (d1, d2, total, moved):
            for s in d.families():
                assert s == cut_system(s.words, d.genus)

    @settings(max_examples=60, deadline=None)
    @given(moved_diagrams(max_moves=6, torsion=True), moved_diagrams(max_moves=6), st.integers(0, 2**32))
    def test_moved_rows_are_abelianized_words(self, d1, d2, seed):
        # moves act on words alone; the rows a moved, summed or stabilized
        # diagram derives are its abelianized words, and its invariants are
        # those of the same words parsed back from text
        s4 = standard_diagram("S4")
        sums = (connected_sum(d1, d2), connected_sum(d2, d1), connected_sum(d1, s4))
        moved = random_move_sequence(sums[0], random.Random(seed), max_moves=4)[0]
        for d in (*sums, moved, *(stabilize(d1, fam) for fam in ("alpha", "beta", "gamma"))):
            for s in d.families():
                assert len(s.words) == s.genus == d.genus
                assert s.matrix().rows == tuple(abelianize_word(w, d.genus) for w in s.words)
        back = parse(serialize(moved))
        assert k_triple(moved) == k_triple(back)
        assert homology(moved) == homology(back)
        assert form_invariants(intersection_form(moved)) == form_invariants(intersection_form(back))

    @settings(max_examples=40, deadline=None)
    @given(moved_diagrams(torsion=True))
    def test_nonzeros_are_abelianized_words(self, moved):
        # the rows' nonzeros, read off the words by the one exponent-sum
        # routine, against the public dense reference; every fixture's
        # families are built unchecked, so the refused ones count too
        systems = list(moved.families())
        for path in sorted(FIXTURES.glob("*.tri")):
            lines = [line.split("#")[0].split() for line in path.read_text().splitlines()]
            genus = next(int(f[1]) for f in lines if f[:1] == ["genus"])
            for f in lines:
                if f[:1] in (["alpha"], ["beta"], ["gamma"]):
                    curves = " ".join(f[1:]).split("|") if len(f) > 1 else []
                    systems.append(CutSystem(genus, tuple(cyclic_reduce(parse_word(c)) for c in curves)))
        assert len(systems) > 3 + 30
        for s in systems:
            dense = (abelianize_word(w, s.genus) for w in s.words)
            assert s._nonzeros == tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in dense)

    def test_moves_make_no_cut_system_calls(self, monkeypatch):
        calls = []
        checked = trisect.diagrams.cut_system

        def counting(*args, **kwargs):
            calls.append(args)
            return checked(*args, **kwargs)

        monkeypatch.setattr(trisect.diagrams, "cut_system", counting)
        d = trisection_diagram(1, words("a1"), words("b1"), words("a1 b1"))
        other = standard_diagram("CP2BAR")
        assert len(calls) == 6  # the counter sees calls from inside the module
        calls.clear()
        d = stabilize(d, "beta")
        d = slide_family(d, "gamma", 0, 1, words("b2")[0], -1)
        d = slide_family(d, "alpha", 1, 0)
        d = connected_sum(d, stabilize(other, "alpha"))
        assert d.genus == 4
        assert calls == []

    def test_moves_abelianize_no_word_and_slides_share_rows(self, monkeypatch):
        # moves act on words; rows' nonzeros are read off the words when an
        # invariant asks, once per cut system, and a slide keeps the two other
        # families, whose kept nonzeros are reused; no dense row is built
        calls, dense = [], []
        real = CutSystem._nonzeros.func

        def counting(system):
            calls.append(system.words)
            return real(system)

        counted = cached_property(counting)
        counted.__set_name__(CutSystem, "_nonzeros")
        monkeypatch.setattr(CutSystem, "_nonzeros", counted)
        real_matrix = CutSystem.matrix
        monkeypatch.setattr(CutSystem, "matrix", lambda system: dense.append(system) or real_matrix(system))
        d = connected_sum(standard_diagram("S2xS2"), standard_diagram("CP2"))
        other = standard_diagram("CP2BAR")
        calls.clear()
        d = stabilize(d, "beta")
        d = slide_family(d, "gamma", 0, 3, words("b2")[0], -1)
        d = slide_family(d, "beta", 1, 0)
        d = connected_sum(d, stabilize(other, "alpha"))
        assert d.genus == 6
        assert calls == []
        k_triple(d)
        assert sorted(calls) == sorted(s.words for s in d.families())
        calls.clear()
        slid = slide_family(d, "beta", 2, 4, words("a1 B3")[0], -1)
        assert calls == []
        assert slid.alpha is d.alpha and slid.gamma is d.gamma
        assert k_triple(slid) == k_triple(d)
        assert calls == [slid.beta.words]
        assert dense == []
        fresh = CutSystem(slid.genus, slid.beta.words)  # equality, hash and repr ignore kept rows
        assert (fresh, hash(fresh), repr(fresh)) == (slid.beta, hash(slid.beta), repr(slid.beta))


class TestStabilize:
    def test_stabilize_s4(self):
        d = stabilize(standard_diagram("S4"), "alpha")
        assert d.genus == 1
        assert d.alpha.words == (parse_word("b1"),)
        assert d.beta.words == (parse_word("a1"),)
        assert d.gamma.words == (parse_word("a1"),)
        assert k_triple(d) == (0, 1, 0)

    def test_triple_stabilization_raises_each_k(self, library):
        for d in library.values():
            ks = k_triple(d)
            out = d
            for fam in ("alpha", "beta", "gamma"):
                out = stabilize(out, fam)
            assert out.genus == d.genus + 3
            assert k_triple(out) == tuple(k + 1 for k in ks)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            stabilize(standard_diagram("S4"), "delta")


class TestConnectedSum:
    def test_sum_with_s4_is_identity(self, library):
        s4 = standard_diagram("S4")
        for d in library.values():
            assert serialize(connected_sum(d, s4)) == serialize(d)
            assert serialize(connected_sum(s4, d)) == serialize(d)

    def test_index_shift(self):
        d = connected_sum(standard_diagram("CP2"), standard_diagram("CP2BAR"))
        assert d.genus == 2
        assert d.gamma.words == (parse_word("a1 b1"), parse_word("a2 B2"))

    def test_k_values_add(self, library):
        from trisect.invariants import euler_characteristic

        for d1 in library.values():
            for d2 in library.values():
                k1, k2 = k_triple(d1), k_triple(d2)
                total = connected_sum(d1, d2)
                assert k_triple(total) == tuple(a + b for a, b in zip(k1, k2))
                assert euler_characteristic(total) == (
                    euler_characteristic(d1) + euler_characteristic(d2) - 2
                )


class TestStandardDiagrams:
    def test_s4_genus_zero(self):
        d = standard_diagram("S4")
        assert d.genus == 0 and d.alpha.words == ()

    def test_names_case_insensitive(self):
        assert serialize(standard_diagram("cp2")) == serialize(standard_diagram("CP2"))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            standard_diagram("T4")

    def test_all_library_diagrams_valid(self, library):
        for name, d in library.items():
            assert d.genus >= 0  # construction already validated all families

    def test_curve_homology_recomputable(self, library):
        from trisect.words import abelianize_word

        for d in library.values():
            for s in d.families():
                assert s.matrix().rows == tuple(abelianize_word(w, d.genus) for w in s.words)


class TestHeegaardPairs:
    def test_pair_order(self):
        d = standard_diagram("CP2")
        ab, bg, ga = heegaard_pairs(d)
        assert ab.first is d.alpha and ab.second is d.beta
        assert bg.first is d.beta and bg.second is d.gamma
        assert ga.first is d.gamma and ga.second is d.alpha

    def test_cp2_pairing_matrices_unimodular(self):
        d = standard_diagram("CP2")
        for h in heegaard_pairs(d):
            pm = (
                h.first.matrix()
                @ _j(1)
                @ h.second.matrix().transpose()
            )
            assert pm.rows[0][0] in (1, -1)

    def test_s4_pairs_empty(self):
        for h in heegaard_pairs(standard_diagram("S4")):
            assert h.genus == 0

    def test_connected_sum_distributes_over_pairs(self):
        d1 = standard_diagram("S2xS2")
        d2 = standard_diagram("CP2")
        total = connected_sum(d1, d2)
        for h, h1, h2 in zip(
            heegaard_pairs(total), heegaard_pairs(d1), heegaard_pairs(d2)
        ):
            assert h.first.matrix() == _block_sum(h1.first.matrix(), h2.first.matrix(), d1.genus, d2.genus)
            assert h.second.matrix() == _block_sum(h1.second.matrix(), h2.second.matrix(), d1.genus, d2.genus)


def _j(genus):
    from test_intmatrix import symplectic_form

    return symplectic_form(genus)


def _block_sum(m1, m2, g1, g2):
    """Homology matrix of a connected sum: a/b blocks interleave by handle."""
    g = g1 + g2
    rows = []
    for r in m1.rows:
        rows.append(list(r[:g1]) + [0] * g2 + list(r[g1:]) + [0] * g2)
    for r in m2.rows:
        rows.append([0] * g1 + list(r[:g2]) + [0] * g1 + list(r[g2:]))
    return IntMatrix(rows, 2 * g)
