"""Invariants of the 4-manifold encoded by a trisection diagram.

Pair ranks, Euler characteristic, integral homology, the intersection form
and its congruence invariants, and a homotopy-sphere screening report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagrams import CutSystem, HeegaardDiagram, TrisectionDiagram
from .intmatrix import IntMatrix, _matrix, _pairing, _smith, quotient_invariants

PAIR_NAMES = ("alpha_beta", "beta_gamma", "gamma_alpha")
DEFAULT_TIETZE_BUDGET = 10_000  # Tietze steps; groups imports it, so the CLI shares it

VERDICT_NOT_SPHERE = "NotHomotopySphere"
VERDICT_UNRESOLVED = "HomologySphereUnresolved"
VERDICT_TRIVIAL_PI1 = "TrivializedPi1"


class NotHomologicallyStandard(Exception):
    """A Heegaard pair's curve span has torsion, so the pair cannot present
    a connected sum of S1 x S2's."""

    def __init__(self, divisors, pair_name=None):
        self.divisors = tuple(divisors)
        self.pair_name = pair_name
        where = "" if pair_name is None else f" for pair {pair_name}"
        super().__init__(f"stacked curve span has torsion {list(self.divisors)}{where}")


def pair_k(h: HeegaardDiagram) -> int:
    """Number k with H1 of the encoded 3-manifold equal to Z^k.

    H1 is Z^2g / (L_first + L_second), read off the Smith invariants of the
    g x g intersection matrix M[i][j] = <second_i, first_j>.  If L_first is
    a primitive Lagrangian, x -> (<x, first_j>)_j maps Z^2g onto Z^g with
    kernel L_first, so the quotient is coker M; M and its transpose have
    the same Smith divisors, so it is enough that one side is a validated
    cut system.  Torsion-freeness is a necessary condition for the pair to
    be standard; torsion raises :class:`NotHomologicallyStandard`.
    """
    return _pair_rank(_pair_matrix(h.first, h.second, h.genus))


def _pair_matrix(first: CutSystem, second: CutSystem, g: int) -> IntMatrix:
    """The g x g intersection matrix M[i][j] = <second_i, first_j> of a pair."""
    return _matrix(_pairing(second.matrix().rows, first.matrix().rows, g), g)


def _pair_rank(m: IntMatrix, pair_name: str | None = None) -> int:
    """The free rank of coker ``m``; torsion raises, naming the pair."""
    free, torsion = quotient_invariants(m.ncols, m)
    if torsion:
        raise NotHomologicallyStandard(torsion, pair_name)
    return free


def _pair_matrices(d: TrisectionDiagram) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The three pairs' intersection matrices, kept on ``d``:
    P_ab = <beta_i, alpha_j>, P_bg = <gamma_i, beta_j>, P_ga = <alpha_i, gamma_j>."""
    fams = d.families()
    return d._keep("pair_matrices", lambda: tuple(map(_pair_matrix, fams, fams[1:] + fams[:1], (d.genus,) * 3)))


def k_triple(d: TrisectionDiagram) -> tuple[int, int, int]:
    """The pair ranks in the order (alpha_beta, beta_gamma, gamma_alpha), kept
    on ``d``: the Smith invariants of the pairs' intersection matrices, which
    :func:`homology` and :func:`intersection_form` share.  A diagram with a
    non-standard pair raises on every call."""
    return d._keep("k_triple", lambda: tuple(map(_pair_rank, _pair_matrices(d), PAIR_NAMES)))


def euler_characteristic(d: TrisectionDiagram) -> int:
    """chi = 2 + g - (k_ab + k_bg + k_ga)."""
    return 2 + d.genus - sum(k_triple(d))


def homology(d: TrisectionDiagram) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """H_0..H_4 as (free rank, torsion divisors) pairs.

    H1 is Z^2g / (L_alpha + L_beta + L_gamma).  beta must be a validated cut
    system, as in every diagram built by ``parse``, ``cut_system`` or the
    moves: then L_beta is a primitive Lagrangian, x -> (<x, beta_j>)_j maps
    Z^2g onto Z^g with kernel L_beta, and H1 is the cokernel of the images of
    L_alpha and L_gamma, the rows of the 2g x g matrix N = [P_ab^T; P_bg] of
    two kept pair matrices (those of -alpha_i and gamma_i).  H1 is read off
    the divisors of N's Smith form, which :func:`intersection_form` shares:
    b1 = g - rank N.  H3 is its free part and H2 carries its torsion, with
    free rank b2 = chi - 2 + 2*b1.
    """
    divisors = _beta_image_smith(d)[0]
    b1, torsion = d.genus - len(divisors), tuple(x for x in divisors if x > 1)
    b2 = euler_characteristic(d) - 2 + 2 * b1
    return (1, ()), (b1, torsion), (b2, torsion), (b1, ()), (1, ())


def _beta_image_smith(d: TrisectionDiagram) -> tuple:
    """``(divisors, U)`` of N = [P_ab^T; P_bg], the images of L_alpha and
    L_gamma under beta's pairing map, kept on ``d``."""
    def compute():
        p_ab, p_bg = _pair_matrices(d)[:2]
        return _smith(_matrix(p_ab.transpose().rows + p_bg.rows, d.genus), with_u=True)

    return d._keep("beta_image_smith", compute)


def intersection_form(d: TrisectionDiagram) -> IntMatrix:
    """Gram matrix of the intersection pairing on a basis of H2 / Tors.

    The form comes from one integer kernel (Feller-Klug-Schirmer-Zemke).  For
    every trisection, FKSZ (arXiv:1711.04762) identify H2 with
    (L_beta ∩ (L_alpha + L_gamma)) / (L_beta ∩ L_alpha + L_beta ∩ L_gamma)
    and the form with <x, y_alpha>, the pairing of x with the alpha-part of y
    in y = y_alpha + y_gamma.  A row z = (z_alpha, z_gamma) of the left
    kernel K of N = [P_ab^T; P_bg] (see :func:`homology`) says that
    x = z_gamma L_gamma - z_alpha L_alpha is killed by beta's pairing map,
    so x lies in L_beta; z -> x maps K onto H2, and K has rank g + b1.  As
    L_alpha is Lagrangian, <x, y_alpha> = -<z_gamma L_gamma, y_alpha>, and
    the form pulls back to Q_K = K_gamma P_ga^T K_alpha^T, where
    P_ga[i][j] = <alpha_i, gamma_j> is kept by :func:`k_triple`.  This needs
    beta to be a validated cut system, which every diagram built by
    ``parse``, ``cut_system`` or the moves is.  By Poincare duality the
    form's radical on H2 is exactly its torsion, so K / rad(Q_K) = H2 / Tors,
    unimodular of size b2, whether or not H1 has torsion.  K is taken as the
    rows of U past the rank in the Smith form U N V = D that
    :func:`homology` shares: they are a basis of the left kernel of N.  With
    Q_K checked symmetric and U Q_K V = D its Smith form, the rows of U past
    the rank span its two-sided kernel, so U Q_K U^T = q ⊕ 0.  q, on the
    first rows of U, has Q_K's Smith divisors: it is unimodular of size b2
    iff they are b2 ones.  The Gram matrix is a deterministic function of
    the diagram; only its congruence class is an invariant.  Refuses a
    non-standard pair.
    """
    g, b2 = d.genus, homology(d)[2][0]
    n_divisors, n_u = _beta_image_smith(d)
    kern = n_u.rows[len(n_divisors) :]
    k_alpha = _matrix(tuple(z[:g] for z in kern), g)
    k_gamma = _matrix(tuple(z[g:] for z in kern), g)
    qk = k_gamma @ (_pair_matrices(d)[2].transpose() @ k_alpha.transpose())
    if qk != qk.transpose():
        raise ArithmeticError("intersection pairing is not symmetric on this diagram")
    divisors, u = _smith(qk, with_u=True)
    if len(divisors) != b2 or any(x != 1 for x in divisors):
        raise ArithmeticError("intersection form is not unimodular of rank b2 on this diagram")
    basis = _matrix(u.rows[: len(divisors)], len(kern))
    return basis @ (qk @ basis.transpose())


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    signature: int
    parity: str  # "even" or "odd"


def form_invariants(q: IntMatrix) -> FormInvariants:
    """Rank, signature and parity of a symmetric integer form, exactly.

    The signature comes from integer congruence diagonalization: a pivot p
    with row v splits off, and the rest becomes the Schur complement scaled
    by |p|, |p| M - sign(p) v v^T, then divided by the gcd of its entries;
    positive scalings keep the signature.  A +-1 diagonal entry is taken
    first, else the first nonzero one: a unit pivot scales nothing, so the
    rows with v_i = 0 stay as they are and no gcd pass follows.  Rank and
    signature are congruence invariants (Sylvester), so they are those of
    any pivot order.  A zero diagonal is repaired by the hyperbolic-pair
    trick (add one basis vector to another).  Parity is even iff every
    diagonal entry of q is even, which is a congruence invariant.
    """
    if q.nrows != q.ncols:
        raise ValueError("form matrix must be square")
    if q != q.transpose():
        raise ValueError("form matrix must be symmetric")
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
        # a unit pivot scales nothing, so rows with v_i = 0 stay and no gcd divides
        m = [
            [scale * x - sign * vi * vj for x, vj in zip(row, v)] if vi or scale > 1 else row
            for row, vi in zip(rest, v)
        ]
        if scale > 1 and (div := math.gcd(*(x for row in m for x in row))) > 1:
            m = [[x // div for x in row] for row in m]
    parity = "even" if all(row[i] % 2 == 0 for i, row in enumerate(q.rows)) else "odd"
    return FormInvariants(rank, signature, parity)


@dataclass(frozen=True)
class PoincareReport:
    homology_matches_s4: bool
    pi1_trivialized: bool
    verdict: str


_S4_HOMOLOGY = ((1, ()), (0, ()), (0, ()), (0, ()), (1, ()))


def poincare_candidate_check(d: TrisectionDiagram, tietze_budget: int = DEFAULT_TIETZE_BUDGET) -> PoincareReport:
    """Screen a diagram as a homotopy-4-sphere candidate.

    Never raises: a diagram whose pairs fail the standardness check simply
    does not match the 4-sphere's homology.  The Tietze reduction of pi1 is
    :func:`~trisect.groups.reduced_pi1`, which hom counts on the same
    diagram object share.
    """
    from .groups import reduced_pi1

    try:
        matches = homology(d) == _S4_HOMOLOGY
    except NotHomologicallyStandard:
        matches = False
    trivialized = reduced_pi1(d, tietze_budget).num_generators == 0
    if not matches:
        verdict = VERDICT_NOT_SPHERE
    elif trivialized:
        verdict = VERDICT_TRIVIAL_PI1
    else:
        verdict = VERDICT_UNRESOLVED
    return PoincareReport(matches, trivialized, verdict)
