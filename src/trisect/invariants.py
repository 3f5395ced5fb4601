"""Invariants of the 4-manifold encoded by a trisection diagram.

Pair ranks, Euler characteristic, integral homology, the intersection form
and its congruence invariants, and a homotopy-sphere screening report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagrams import PAIR_NAMES, HeegaardDiagram, NotHomologicallyStandard, TrisectionDiagram, _pair_matrix, _pair_rank
from .groups import DEFAULT_TIETZE_BUDGET, reduced_pi1
from .intmatrix import IntMatrix, _combine, _free_and_torsion, _matrix, _smith_divisors, _sparse_rows, _subtract

VERDICT_NOT_SPHERE = "NotHomotopySphere"
VERDICT_UNRESOLVED = "HomologySphereUnresolved"
VERDICT_TRIVIAL_PI1 = "TrivializedPi1"


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
    return _pair_rank(_pair_matrix(h.first, h.second))


def k_triple(d: TrisectionDiagram) -> tuple[int, int, int]:
    """The pair ranks (alpha_beta, beta_gamma, gamma_alpha) of the pair matrices
    that :func:`homology` and :func:`intersection_form` share; both are cached
    on ``d``, and a raise is not, so a non-standard pair raises on every call."""
    return d._k_triple


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
    two of ``d``'s cached pair matrices (those of -alpha_i and gamma_i).  H1
    is read off N's Smith divisors, which ``d`` caches with the kernel
    blocks that :func:`intersection_form` reads: b1 = g - rank N.  H3 is its
    free part and H2 carries its torsion, with free rank b2 = chi - 2 + 2*b1.
    """
    b1, torsion = _free_and_torsion(d.genus, d._beta_kernel[0])
    b2 = euler_characteristic(d) - 2 + 2 * b1
    return (1, ()), (b1, torsion), (b2, torsion), (b1, ()), (1, ())


def _kernel_form(d: TrisectionDiagram) -> IntMatrix:
    """Q_K, checked symmetric, and its Smith divisors checked to be b2 ones;
    see :func:`intersection_form`.  It is formed from K's sparse rows: P_ga^T
    K_alpha^T, then K_gamma times that."""
    b2 = homology(d)[2][0]
    _, k_alpha, k_gamma = d._beta_kernel
    right = tuple(zip(*(_combine(z, d._pair_matrices[2].rows, d.genus) for z in k_alpha)))
    qk = _matrix(tuple(_combine(z, right, len(k_alpha)) for z in k_gamma), len(k_alpha))
    if qk != qk.transpose():
        raise ArithmeticError("intersection pairing is not symmetric on this diagram")
    divisors = _smith_divisors(_sparse_rows(qk))
    if len(divisors) != b2 or any(x != 1 for x in divisors):
        raise ArithmeticError("intersection form is not unimodular of rank b2 on this diagram")
    return qk


def intersection_form(d: TrisectionDiagram) -> IntMatrix:
    """Gram matrix of the intersection pairing on a basis of H2 / Tors: the
    normal form of its congruence class, except for definite forms of rank
    >= 9, whose class rank, signature and parity do not decide.

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
    P_ga[i][j] = <alpha_i, gamma_j> is a pair matrix cached on ``d``.  This needs
    beta to be a validated cut system, which every diagram built by
    ``parse``, ``cut_system`` or the moves is.  By Poincare duality the
    form's radical on H2 is exactly its torsion, so K / rad(Q_K) = H2 / Tors,
    unimodular of size b2, whether or not H1 has torsion.  K is any basis of
    N's left kernel; ``d`` caches its alpha and gamma blocks with N's
    divisors, which :func:`homology` reads.  Q_K is checked symmetric, with
    b2 Smith divisors, all 1.

    Indefinite unimodular forms are determined by rank, signature and parity,
    and definite ones of rank <= 8 are +-I_n or +-E8 (Serre, *A Course in
    Arithmetic*, ch. V), so the result is :func:`_normal_form` of Q_K's
    invariants.  A definite form of rank >= 9 (I_9 and E8 ⊕ <1> share them)
    is B Q_K B^T instead, for B the pivot rows of the transform U of Q_K's
    elimination: U's other rows span the kernel of the symmetric Q_K on both
    sides, so U Q_K U^T = B Q_K B^T ⊕ 0, which has Q_K's divisors.  Refuses
    a non-standard pair, and an even form whose signature is not divisible
    by 8 (van der Blij).
    """
    qk = _kernel_form(d)
    form = _normal_form(form_invariants(qk))
    if form is None:
        pivots = _smith_divisors(_sparse_rows(qk), transforms=True)[1]
        basis = _matrix(tuple(tuple(z.get(~j, 0) for j in range(qk.nrows)) for z in pivots), qk.nrows)
        form = basis @ (qk @ basis.transpose())
    return form


# E8's Gram matrix: 2 on the diagonal and -1 on each edge of its Dynkin
# diagram, the chain 1..7 with node 8 joined to node 5
_E8_EDGES = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)}
_E8 = tuple(
    tuple(2 if i == j else -((i, j) in _E8_EDGES or (j, i) in _E8_EDGES) for j in range(1, 9)) for i in range(1, 9)
)


def _normal_form(inv: FormInvariants) -> IntMatrix | None:
    """The Gram matrix of the unimodular form class with invariants ``inv``,
    as a block sum: diag(1^p, (-1)^q) when odd; |sigma|/8 copies of E8 (of
    -E8 when sigma < 0), then hyperbolic planes [[0, 1], [1, 0]], when even.
    ``None`` for a definite form of rank >= 9.  An even form whose signature
    is not divisible by 8 raises ``ArithmeticError``."""
    rank, sig = inv.rank, inv.signature
    if inv.parity == "even" and sig % 8:
        raise ArithmeticError(f"even intersection form has signature {sig}, not divisible by 8, on this diagram")
    if abs(sig) == rank > 8:
        return None
    if inv.parity == "odd":
        blocks = [((1,),)] * ((rank + sig) // 2) + [((-1,),)] * ((rank - sig) // 2)
    else:
        e8 = _E8 if sig > 0 else tuple(tuple(-x for x in row) for row in _E8)
        blocks = [e8] * (abs(sig) // 8) + [((0, 1), (1, 0))] * ((rank - abs(sig)) // 2)
    rows, at = [], 0
    for block in blocks:
        rows += [(0,) * at + row + (0,) * (rank - at - len(row)) for row in block]
        at += len(block)
    return _matrix(tuple(rows), rank)


def diagram_form_invariants(d: TrisectionDiagram) -> FormInvariants:
    """``form_invariants(intersection_form(d))``, read off Q_K itself.

    U Q_K U^T = q ⊕ 0 with U unimodular (see :func:`intersection_form`), so
    Q_K is congruent to the form plus zeros, which add nothing to the rank
    and signature and keep the parity.  Q_K's checks run, on its divisors
    alone: no Gram matrix is built.
    """
    return form_invariants(_kernel_form(d))


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
    first, else the first nonzero one: a unit pivot scales nothing, so it
    changes only the entries in supp(v) x supp(v) and no gcd pass follows.
    Rank and signature are congruence invariants (Sylvester), so they are
    those of any pivot order.  The form is kept as symmetric dict rows of
    nonzero entries, and a row left empty, a radical vector, is dropped.
    When no diagonal entry is left, a zero diagonal is repaired by the
    hyperbolic-pair trick (add a basis vector e_j with m[i][j] != 0 to
    e_i, which makes m[i][i] = 2 m[i][j]).  Parity is even iff every
    diagonal entry of q is even, which is a congruence invariant.
    """
    if q.nrows != q.ncols:
        raise ValueError("form matrix must be square")
    if q != q.transpose():
        raise ValueError("form matrix must be symmetric")
    m = {i: row for i, row in enumerate(map(dict, _sparse_rows(q))) if row}
    rank = signature = 0
    while m:
        piv = next((i for i, row in m.items() if row.get(i) in (1, -1)), None)
        if piv is None:
            piv = next((i for i, row in m.items() if i in row), None)
        if piv is None:
            piv = next(iter(m))
            _add_basis_vector(m, piv, next(iter(m[piv])))
        v = m.pop(piv)
        p = v.pop(piv)
        sign, scale = (1 if p > 0 else -1), abs(p)
        rank += 1
        signature += sign
        for i in v:
            del m[i][piv]
        if scale > 1:
            for row in m.values():
                for k in row:
                    row[k] *= scale
        for i, vi in v.items():
            _subtract(m[i], sign * vi, v)
            if not m[i]:
                del m[i]
        if scale > 1 and (div := math.gcd(*(x for row in m.values() for x in row.values()))) > 1:
            for row in m.values():
                for k in row:
                    row[k] //= div
    parity = "even" if all(row[i] % 2 == 0 for i, row in enumerate(q.rows)) else "odd"
    return FormInvariants(rank, signature, parity)


def _add_basis_vector(m: dict, i: int, j: int) -> None:
    """Replace e_i by e_i + e_j in the symmetric dict rows ``m`` of a form
    with zero diagonal and m[i][j] != 0: row i gains row j, then column i
    gains column j, so m[i][i] becomes 2 m[i][j].  Every other row keeps an
    entry, as row j's entries are nonzero where an entry of column i cancels."""
    row = dict(m[i])
    _subtract(row, -1, m[j])
    row[i] = 2 * m[i][j]
    for k in m[i].keys() - row.keys():  # entries of column i that cancelled
        del m[k][i]
    for k, x in row.items():
        m[k][i] = x
    m[i] = row


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
