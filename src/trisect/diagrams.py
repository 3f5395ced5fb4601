"""Cut systems, Heegaard and trisection diagrams, and the moves on them.

A diagram here is purely algebraic: a genus plus curve words.  Validation
checks the homological conditions that a geometric curve system must
satisfy (vanishing pairwise intersection numbers, primitive rank-g span).
It cannot, and does not try to, certify that the words are realized by
disjoint embedded curves; every invariant computed downstream depends only
on the algebraic data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .intmatrix import IntMatrix, _matrix, _pairing, quotient_invariants
from .words import (
    Word,
    abelianize_word,
    cyclic_reduce,
    invert_word,
    max_index,
    parse_word,
    shift_indices,
    token_code,
)

FAMILY_NAMES = ("alpha", "beta", "gamma")


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


@dataclass(frozen=True)
class Curve:
    """A curve class: cyclically reduced word plus its homology vector."""

    word: Word
    homology: tuple[int, ...]


@dataclass(frozen=True)
class CutSystem:
    """g curves on a genus-g surface whose span is Lagrangian and primitive."""

    genus: int
    curves: tuple[Curve, ...]

    def words(self) -> tuple[Word, ...]:
        return tuple(c.word for c in self.curves)

    def matrix(self) -> IntMatrix:
        """The g x 2g matrix of homology rows."""
        return _matrix(tuple(c.homology for c in self.curves), 2 * self.genus)


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

    def _keep(self, key, compute):
        """``compute()`` once per object and ``key``, kept outside the fields so
        equality, hash, repr and text hold; a raise is not kept."""
        kept = vars(self).setdefault("_kept", {})
        if key not in kept:
            kept[key] = compute()
        return kept[key]


def cut_system(word_seq, genus: int, family: str | None = None) -> CutSystem:
    """Validate curve words and build a :class:`CutSystem`.

    Checks, in order: exactly ``genus`` curves; generator indices within the
    genus; all pairwise algebraic intersection numbers zero; the homology
    span is a primitive sublattice of full rank g (all Smith divisors 1).
    This and the constructors built on it are where outside words enter;
    the moves below keep a cut system valid by construction.
    """
    words = [cyclic_reduce(w) for w in word_seq]
    if len(words) != genus:
        raise InvalidCutSystemError(
            "count", f"expected {genus} curves, got {len(words)}", family=family
        )
    for w in words:
        if max_index(w) > genus:
            raise InvalidCutSystemError(
                "index",
                f"token index {max_index(w)} exceeds genus {genus}",
                family=family,
            )
    system = CutSystem(genus, tuple(Curve(w, abelianize_word(w, genus)) for w in words))
    rows = [c.homology for c in system.curves]
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
    free, torsion = quotient_invariants(2 * genus, system.matrix())
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
    reduced, so homology row i becomes ``row_i + sign*row_j``: reduction and
    conjugation leave exponent sums unchanged.  Row operations preserve both
    cut-system conditions, so the result is built directly, with the other
    curves reused, and is not validated again.
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
    curves = list(system.curves)
    wj = curves[j].word
    if sign == -1:
        wj = invert_word(wj)
    row = tuple(a + sign * b for a, b in zip(curves[i].homology, curves[j].homology))
    curves[i] = Curve(cyclic_reduce(curves[i].word + conjugator + wj + invert_word(conjugator)), row)
    return CutSystem(g, tuple(curves))


def slide_family(d: TrisectionDiagram, family: str, i: int, j: int, conjugator=(), sign: int = 1) -> TrisectionDiagram:
    """Apply :func:`handle_slide` to one family of a trisection diagram."""
    return replace(d, **{family: handle_slide(d.family(family), i, j, conjugator, sign)})


def _block_sum(s1: CutSystem, s2: CutSystem) -> CutSystem:
    """``s1`` on the first handles and ``s2``, shifted past them, on the next ones.

    The block sum of two cut systems on disjoint handles is a cut system,
    so it is built without validation.  Homology rows are the old rows
    padded with zeros in the (a_1..a_g, b_1..b_g) layout; nothing is
    abelianized again.
    """
    g1, g2 = s1.genus, s2.genus
    z1, z2 = (0,) * g1, (0,) * g2
    curves = tuple(Curve(c.word, c.homology[:g1] + z2 + c.homology[g1:] + z2) for c in s1.curves)
    curves += tuple(
        Curve(shift_indices(c.word, g1), z1 + c.homology[:g2] + z1 + c.homology[g2:])
        for c in s2.curves
    )
    return CutSystem(g1 + g2, curves)


# one handle's longitude a_1 and meridian b_1, each a cut system of genus 1
_LONGITUDE = CutSystem(1, (Curve((token_code("a", 1),), (1, 0)),))
_MERIDIAN = CutSystem(1, (Curve((token_code("b", 1),), (0, 1)),))


def stabilize(d: TrisectionDiagram, family: str) -> TrisectionDiagram:
    """Raise the genus by one standard handle.

    The chosen family gains the meridian curve b_{g+1}; the other two
    families gain the longitude a_{g+1}.  The Euler characteristic of the
    encoded 4-manifold is unchanged: the genus and the total of the three
    pair ranks both grow by one.  Each family is the block sum of itself
    and the new handle's curve.
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
    cut systems, with d2's indices shifted past d1's handles."""
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
