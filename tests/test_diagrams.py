import random

import pytest
from hypothesis import given, settings, strategies as st

import trisect.diagrams
from conftest import moved_diagrams, random_move_sequence
from trisect.diagrams import (
    InvalidCutSystemError,
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
from trisect.invariants import k_triple
from trisect.textio import serialize
from trisect.words import parse_word


def words(*texts):
    return [parse_word(t) for t in texts]


class TestValidation:
    def test_disjoint_basis_curves(self):
        sys = cut_system(words("a1", "a2"), 2)
        assert sys.matrix() == IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])

    def test_diagonal_curve(self):
        sys = cut_system(words("a1 b1"), 1)
        assert sys.curves[0].homology == (1, 1)

    def test_imprimitive_curve(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1 a1"), 1)
        assert exc.value.reason == "imprimitive"
        assert exc.value.divisors == (2,)

    def test_wrong_count(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1"), 2)
        assert exc.value.reason == "count"

    def test_index_out_of_range(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a2"), 1)
        assert exc.value.reason == "index"

    def test_non_lagrangian_pair_reported(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1", "b1 a2"), 2)
        assert exc.value.reason == "lagrangian"
        assert exc.value.pair == (1, 2)
        assert exc.value.value == 1

    def test_rank_deficient_family(self):
        with pytest.raises(InvalidCutSystemError) as exc:
            cut_system(words("a1", "a1"), 2)
        assert exc.value.reason == "imprimitive"

    def test_genus_zero(self):
        assert cut_system([], 0).curves == ()

    def test_curves_stored_cyclically_reduced(self):
        sys = cut_system([parse_word("A2 a1 a2")], 1)
        assert sys.curves[0].word == parse_word("a1")


class TestHandleSlide:
    def test_basic_slide(self):
        sys = cut_system(words("a1", "a2"), 2)
        out = handle_slide(sys, 0, 1)
        assert out.words() == (parse_word("a1 a2"), parse_word("a2"))
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
            assert sys == cut_system(sys.words(), 3)
            pairs = [
                symplectic_pairing(sys.curves[i].homology, sys.curves[j].homology, 3)
                for i in range(3)
                for j in range(3)
            ]
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
                assert s == cut_system(s.words(), d.genus)

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


class TestStabilize:
    def test_stabilize_s4(self):
        d = stabilize(standard_diagram("S4"), "alpha")
        assert d.genus == 1
        assert d.alpha.words() == (parse_word("b1"),)
        assert d.beta.words() == (parse_word("a1"),)
        assert d.gamma.words() == (parse_word("a1"),)
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
        assert d.gamma.words() == (parse_word("a1 b1"), parse_word("a2 B2"))

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
        assert d.genus == 0 and d.alpha.curves == ()

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
            for system in d.families():
                for curve in system.curves:
                    assert curve.homology == abelianize_word(curve.word, d.genus)


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
    from trisect.intmatrix import symplectic_form

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
