"""Cut systems, Heegaard and trisection diagrams, and the moves on them.

A diagram here is purely algebraic: a genus plus curve words.  Validation
checks the homological conditions that a geometric curve system must
satisfy (vanishing pairwise intersection numbers, primitive rank-g span).
It cannot, and does not try to, certify that the words are realized by
disjoint embedded curves; every invariant computed downstream depends only
on the algebraic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .intmatrix import IntMatrix, _free_and_torsion, _matrix, _pairing, _smith, _smith_divisors, quotient_invariants
from .words import (
    Word,
    _block_letters,
    _exponent_rows,
    _index_error,
    cyclic_reduce,
    invert_word,
    max_index,
    parse_word,
    shift_indices,
    token_code,
)

FAMILY_NAMES = ("alpha", "beta", "gamma")
PAIR_NAMES = ("alpha_beta", "beta_gamma", "gamma_alpha")


class InvalidCutSystemError(Exception):
    """A curve family failed one of the cut-system conditions.

    ``reason`` is one of ``"count"``, ``"index"``, ``"lagrangian"``,
    ``"imprimitive"``; the matching detail rides along in ``pair``/``value``
    (offending curves and their intersection number) or ``divisors``.
    """

    def __init__(self, reason, message, family=None, pair=None, value=None, divisors=None):
        self.reason = reason
        self.family = family
        self.pair = pair
        self.value = value
        self.divisors = tuple(divisors) if divisors is not None else None
        super().__init__(message if family is None else f"{family}: {message}")


class NotHomologicallyStandard(Exception):
    """A Heegaard pair's curve span has torsion, so the pair cannot present
    a connected sum of S1 x S2's."""

    def __init__(self, divisors, pair_name=None):
        self.divisors = tuple(divisors)
        self.pair_name = pair_name
        where = "" if pair_name is None else f" for pair {pair_name}"
        super().__init__(f"stacked curve span has torsion {list(self.divisors)}{where}")


@dataclass(frozen=True)
class CutSystem:
    """g cyclically reduced curve words on a genus-g surface whose homology
    span is Lagrangian and primitive.

    The words are the whole of a cut system.  Its homology rows' nonzeros
    (its relabelled words' exponent rows), which validation, the pairings,
    the divisor routine and :meth:`matrix` read, and the values
    :class:`TrisectionDiagram` derives from them are each a
    ``functools.cached_property``: kept in the instance
    ``__dict__``, outside the fields, so equality, hash, repr and text
    hold, and not kept on a raise.  Neither class may take ``slots=True``,
    which drops that dict.  A word with a token past the genus raises
    ``ValueError`` when its rows or its pi1 relator are first read.
    """

    genus: int
    words: tuple[Word, ...]

    @cached_property
    def _nonzeros(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row's nonzero ``(coordinate, value)`` pairs in coordinate order:
        the exponent rows of the words relabelled through the genus's signed
        table (code -> +-(coordinate + 1))."""
        letters = _block_letters(self.genus)
        try:
            return _exponent_rows(map(letters.__getitem__, w) for w in self.words)
        except KeyError:
            raise _index_error(self.words, self.genus) from None

    def matrix(self) -> IntMatrix:
        """The g x 2g matrix of homology rows, one abelianized word each,
        built from the nonzeros on each call and not kept."""
        width = 2 * self.genus
        rows = (tuple(row.get(k, 0) for k in range(width)) for row in map(dict, self._nonzeros))
        return _matrix(tuple(rows), width)


@dataclass(frozen=True)
class HeegaardDiagram:
    genus: int
    first: CutSystem
    second: CutSystem


@dataclass(frozen=True)
class TrisectionDiagram:
    genus: int
    alpha: CutSystem
    beta: CutSystem
    gamma: CutSystem

    def family(self, name: str) -> CutSystem:
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {name!r}")
        return getattr(self, name)

    def families(self) -> tuple[CutSystem, CutSystem, CutSystem]:
        return (self.alpha, self.beta, self.gamma)

    @cached_property
    def _pair_matrices(self) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        """P_ab = <beta_i, alpha_j>, P_bg = <gamma_i, beta_j>, P_ga = <alpha_i, gamma_j>."""
        return tuple(map(_pair_matrix, self.families(), (self.beta, self.gamma, self.alpha)))

    @cached_property
    def _k_triple(self) -> tuple[int, int, int]:
        return tuple(map(_pair_rank, self._pair_matrices, PAIR_NAMES))

    @cached_property
    def _beta_kernel(self) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
        """N = [P_ab^T; P_bg], beta's pairings with alpha and gamma, as its Smith
        divisors and the alpha and gamma blocks of K, the rows of U past the
        rank in U N V = D: a basis of N's left kernel."""
        g = self.genus
        p_ab, p_bg = self._pair_matrices[:2]
        divisors, u = _smith(_matrix(p_ab.transpose().rows + p_bg.rows, g), with_u=True)
        kern = u.rows[len(divisors) :]
        return divisors, _matrix(tuple(z[:g] for z in kern), g), _matrix(tuple(z[g:] for z in kern), g)

    @cached_property
    def _reduced_pi1(self) -> dict:  # budget -> Presentation, filled by groups.reduced_pi1
        return {}


def _pair_matrix(first: CutSystem, second: CutSystem) -> IntMatrix:
    """The g x g intersection matrix M[i][j] = <second_i, first_j> of a pair."""
    return _matrix(_pairing(second._nonzeros, first._nonzeros, first.genus), first.genus)


def _pair_rank(m: IntMatrix, pair_name: str | None = None) -> int:
    """The free rank of coker ``m``; torsion raises, naming the pair."""
    free, torsion = quotient_invariants(m.ncols, m)
    if torsion:
        raise NotHomologicallyStandard(torsion, pair_name)
    return free


def cut_system(word_seq, genus: int, family: str | None = None) -> CutSystem:
    """Validate curve words and build a :class:`CutSystem`.

    Checks, in order: exactly ``genus`` curves; generator indices within the
    genus (reading the rows' nonzeros off the letter table names the first
    word with a letter past it, by its largest index); all pairwise
    algebraic intersection numbers zero; the homology span is a primitive
    sublattice of full rank g (all Smith divisors 1).  The checks read the
    nonzeros that the system caches for the invariants.  This and the
    constructors built on it are where outside words enter; the moves below
    keep a cut system valid by construction.
    """
    words = tuple(cyclic_reduce(w) for w in word_seq)
    if len(words) != genus:
        raise InvalidCutSystemError(
            "count", f"expected {genus} curves, got {len(words)}", family=family
        )
    system = CutSystem(genus, words)
    try:
        rows = system._nonzeros
    except ValueError as exc:
        raise InvalidCutSystemError("index", str(exc), family=family) from None
    gram = _pairing(rows[:-1], rows, genus)  # the last row has no pair above the diagonal
    for i in range(genus):
        for j in range(i + 1, genus):
            val = gram[i][j]
            if val:
                raise InvalidCutSystemError(
                    "lagrangian",
                    f"curves {i + 1} and {j + 1} have intersection number {val}",
                    family=family,
                    pair=(i + 1, j + 1),
                    value=val,
                )
    free, torsion = _free_and_torsion(2 * genus, _smith_divisors(rows))
    if free != genus or torsion:
        raise InvalidCutSystemError(
            "imprimitive",
            "homology span is not a primitive rank-%d sublattice "
            "(quotient has free rank %d, torsion %s)" % (genus, free, list(torsion)),
            family=family,
            divisors=torsion,
        )
    return system


def heegaard_diagram(genus: int, first_words, second_words) -> HeegaardDiagram:
    return HeegaardDiagram(
        genus,
        cut_system(first_words, genus, family="alpha"),
        cut_system(second_words, genus, family="beta"),
    )


def trisection_diagram(genus: int, alpha_words, beta_words, gamma_words) -> TrisectionDiagram:
    return TrisectionDiagram(
        genus,
        cut_system(alpha_words, genus, family="alpha"),
        cut_system(beta_words, genus, family="beta"),
        cut_system(gamma_words, genus, family="gamma"),
    )


def handle_slide(system: CutSystem, i: int, j: int, conjugator=(), sign: int = 1) -> CutSystem:
    """Slide curve ``i`` over curve ``j`` (0-based indices).

    Curve i's word becomes ``w_i * (c * w_j^sign * c^-1)`` cyclically
    reduced, so its homology row becomes ``row_i + sign*row_j``: reduction
    and conjugation leave exponent sums unchanged.  Row operations preserve
    both cut-system conditions, so the result is built from the words
    directly, with the other words reused, and is neither validated nor
    abelianized.
    """
    g = system.genus
    if not (0 <= i < g and 0 <= j < g):
        raise ValueError(f"curve indices must lie in 0..{g - 1}")
    if i == j:
        raise ValueError("cannot slide a curve over itself")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    conjugator = tuple(conjugator)
    if max_index(conjugator) > g:
        raise ValueError(f"conjugator index exceeds genus {g}")
    words = list(system.words)
    wj = words[j]
    if sign == -1:
        wj = invert_word(wj)
    words[i] = cyclic_reduce(words[i] + conjugator + wj + invert_word(conjugator))
    return CutSystem(g, tuple(words))


def slide_family(d: TrisectionDiagram, family: str, i: int, j: int, conjugator=(), sign: int = 1) -> TrisectionDiagram:
    """Apply :func:`handle_slide` to one family of a trisection diagram.

    The other two families are the same objects as in ``d``, so their
    cached rows are shared; no value cached on ``d`` itself is carried over.
    """
    slid = handle_slide(d.family(family), i, j, conjugator, sign)
    fams = (slid if name == family else s for name, s in zip(FAMILY_NAMES, d.families()))
    return TrisectionDiagram(d.genus, *fams)


def _block_sum(s1: CutSystem, s2: CutSystem) -> CutSystem:
    """``s1`` on the first handles and ``s2``, shifted past them, on the next ones.

    The block sum of two cut systems on disjoint handles is a cut system,
    so it is built without validation: its words are those of ``s1``
    followed by those of ``s2`` with their indices shifted.  No row is
    computed here.
    """
    g1 = s1.genus
    return CutSystem(g1 + s2.genus, (*s1.words, *(shift_indices(w, g1) for w in s2.words)))


# one handle's longitude a_1 and meridian b_1, each a cut system of genus 1
_LONGITUDE = CutSystem(1, ((token_code("a", 1),),))
_MERIDIAN = CutSystem(1, ((token_code("b", 1),),))


def stabilize(d: TrisectionDiagram, family: str) -> TrisectionDiagram:
    """Raise the genus by one standard handle.

    The chosen family gains the meridian curve b_{g+1}; the other two
    families gain the longitude a_{g+1}.  The Euler characteristic of the
    encoded 4-manifold is unchanged: the genus and the total of the three
    pair ranks both grow by one.  Each family is the block sum of itself
    and the new handle's curve: its words with the new word appended.
    """
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}")
    fams = (
        _block_sum(s, _MERIDIAN if name == family else _LONGITUDE)
        for name, s in zip(FAMILY_NAMES, d.families())
    )
    return TrisectionDiagram(d.genus + 1, *fams)


def connected_sum(d1: TrisectionDiagram, d2: TrisectionDiagram) -> TrisectionDiagram:
    """Diagrammatic connected sum: each family is the block sum of its two
    cut systems, d1's words followed by d2's with their indices shifted
    past d1's handles."""
    fams = (_block_sum(s1, s2) for s1, s2 in zip(d1.families(), d2.families()))
    return TrisectionDiagram(d1.genus + d2.genus, *fams)


def heegaard_pairs(d: TrisectionDiagram) -> tuple[HeegaardDiagram, HeegaardDiagram, HeegaardDiagram]:
    """The three 2-colour diagrams, in the fixed order (α,β), (β,γ), (γ,α)."""
    return (
        HeegaardDiagram(d.genus, d.alpha, d.beta),
        HeegaardDiagram(d.genus, d.beta, d.gamma),
        HeegaardDiagram(d.genus, d.gamma, d.alpha),
    )


_STANDARD = {
    "S4": (0, [], [], []),
    "CP2": (1, ["a1"], ["b1"], ["a1 b1"]),
    "CP2BAR": (1, ["a1"], ["b1"], ["a1 B1"]),
    "S1xS3": (1, ["a1"], ["a1"], ["a1"]),
    # Complex-projective-plane pattern on handle 1 against the dual pattern
    # on handle 2; the words are fixed so the intersection form is the
    # rank-2 hyperbolic form (checked by the invariants test suite).
    "S2xS2": (2, ["a1", "a2"], ["b1", "b2"], ["a1 b2", "a2 b1"]),
}

STANDARD_NAMES = tuple(_STANDARD)


def standard_diagram(name: str) -> TrisectionDiagram:
    """A diagram from the built-in library; see :data:`STANDARD_NAMES`."""
    key = next((k for k in _STANDARD if k.upper() == name.upper()), None)
    if key is None:
        raise ValueError(f"unknown standard diagram {name!r} (choose from {', '.join(STANDARD_NAMES)})")
    genus, alpha, beta, gamma = _STANDARD[key]
    return trisection_diagram(
        genus,
        [parse_word(w) for w in alpha],
        [parse_word(w) for w in beta],
        [parse_word(w) for w in gamma],
    )
