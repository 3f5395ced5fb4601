"""Differential tests: homology and the form read off N = [P_ab^T; P_bg]
against the earlier computation on the 3g x 2g stacked curve matrix.

``stacked_homology`` and ``stacked_intersection_form`` are verbatim copies
of the stacked code that the package used before, kept here as the
reference.  Homology and the form's invariants must agree on every
diagram; the Gram matrix may differ (the kernel basis is another one), so
it is checked to be a symmetric unimodular matrix of size b2.
"""

import random

from hypothesis import given, settings

from conftest import FIXTURES, LIBRARY_BUILDERS, determinant, moved_diagrams
from trisect.diagrams import FAMILY_NAMES, connected_sum, slide_family, stabilize
from trisect.intmatrix import _matrix, _pairing, _smith
from trisect.invariants import euler_characteristic, form_invariants, homology, intersection_form
from trisect.textio import parse
from trisect.words import token_code


def stacked_homology(d):
    divisors = _stacked_curve_smith(d)[0]
    b1, torsion = 2 * d.genus - len(divisors), tuple(x for x in divisors if x > 1)
    b2 = euler_characteristic(d) - 2 + 2 * b1
    return (1, ()), (b1, torsion), (b2, torsion), (b1, ()), (1, ())


def _stacked_curve_smith(d):
    """``(divisors, U)`` of the stacked curve matrix [L_beta; L_alpha; L_gamma],
    kept on ``d``."""
    return d._keep(
        "curve_smith",
        lambda: _smith(
            _matrix(d.beta.matrix().rows + d.alpha.matrix().rows + d.gamma.matrix().rows, 2 * d.genus),
            with_u=True,
        ),
    )


def stacked_intersection_form(d):
    """Q_K = K_beta M K_alpha^T on the left kernel K of the stacked curve
    matrix, M[i][j] = -<beta_i, alpha_j>, restricted to the complement of
    its radical."""
    g, chi = d.genus, euler_characteristic(d)
    curve_divisors, curve_u = _stacked_curve_smith(d)
    kern = curve_u.rows[len(curve_divisors) :]
    betas, alphas = d.beta.matrix().rows, d.alpha.matrix().rows
    m = _matrix(_pairing(alphas, betas, g), g).transpose()  # -<beta_i, alpha_j> = <alpha_j, beta_i>
    k_beta = _matrix(tuple(z[:g] for z in kern), g)
    k_alpha = _matrix(tuple(z[g : 2 * g] for z in kern), g)
    qk = k_beta @ (m @ k_alpha.transpose())  # the sparse factor on the left of each product
    if qk != qk.transpose():
        raise ArithmeticError("intersection pairing is not symmetric on this diagram")
    divisors, u = _smith(qk, with_u=True)
    b2 = chi - 2 + 2 * (len(kern) - g)  # K has rank 3g - (2g - b1)
    if len(divisors) != b2 or any(x != 1 for x in divisors):
        raise ArithmeticError("intersection form is not unimodular of rank b2 on this diagram")
    basis = _matrix(u.rows[: len(divisors)], len(kern))
    return basis @ (qk @ basis.transpose())


def assert_matches_stacked(d):
    h = homology(d)
    assert h == stacked_homology(d)
    q = intersection_form(d)
    assert form_invariants(q) == form_invariants(stacked_intersection_form(d))
    assert q == q.transpose()
    assert q.nrows == h[2][0]
    assert abs(determinant(q)) == 1


@settings(max_examples=40, deadline=None)
@given(moved_diagrams(torsion=True), moved_diagrams(torsion=True))
def test_matches_stacked_on_moved_summed_and_stabilized(d1, d2):
    for d in (d1, connected_sum(d1, d2), stabilize(d2, "gamma")):
        assert_matches_stacked(d)


def _slides(d, rng, count):
    """``count`` random handle slides; the genus stays the same."""
    for _ in range(count):
        i, j = rng.sample(range(d.genus), 2)
        conj = tuple(
            rng.choice((1, -1)) * token_code(rng.choice("ab"), rng.randint(1, d.genus))
            for _ in range(rng.randint(0, 2))
        )
        d = slide_family(d, rng.choice(FAMILY_NAMES), i, j, conj, rng.choice((1, -1)))
    return d


def test_matches_stacked_on_seeded_sweep():
    # a few hundred diagrams, mostly slid without stabilizing: the rare
    # diagrams whose Gram matrix differs from the stacked one are slid
    # genus-2 sums, which come up here a few times per hundred
    rng = random.Random(19)
    torsion = parse((FIXTURES / "h1_torsion.tri").read_text())
    names = sorted(LIBRARY_BUILDERS)
    for _ in range(300):
        d = LIBRARY_BUILDERS[rng.choice(names)]()
        if d.genus < 2 or rng.random() < 0.2:
            d = connected_sum(d, LIBRARY_BUILDERS[rng.choice(names)]())
        if rng.random() < 0.15:
            d = connected_sum(d, torsion) if rng.random() < 0.5 else connected_sum(torsion, d)
        while d.genus < 2:
            d = stabilize(d, rng.choice(FAMILY_NAMES))
        d = _slides(d, rng, rng.randint(1, 10))
        if rng.random() < 0.2:
            d = stabilize(d, rng.choice(FAMILY_NAMES))
        assert_matches_stacked(d)
