"""Expected answers, derived without the code under test.

Nothing here imports ``trisect``.  Every expectation follows from the
classical invariants of the five library manifolds and from how those
invariants behave under connected sum, stabilization and handle slides:

* Euler characteristic, Betti numbers, signature and the ``k``-triple add
  under connected sum (Euler characteristic up to the ``-2`` correction);
* the form is even exactly when every summand's form is even;
* pi1 of a connected sum of library pieces is free on one generator per
  ``S1 x S3`` summand, so it has ``(n!)**s`` homomorphisms to ``S_n``;
* stabilizing family ``F`` raises the genus and the ``k`` of the pair not
  containing ``F`` by one; slides change no invariant at all.

The :class:`Model` also tracks the exponent sum of every curve word, which
is all the cube oracle needs to predict which faces a corrupted sector
breaks (see :func:`corrupted_cube_failures`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial

FAMILIES = ("alpha", "beta", "gamma")

# k index gained when stabilizing a family: the pair that does not contain it
_PAIR_GAIN = {"alpha": 1, "beta": 2, "gamma": 0}  # (ab, bg, ga)


@dataclass(frozen=True)
class Model:
    """What a diagram encodes, as far as the oracles need to know."""

    genus: int
    k: tuple[int, int, int]
    b1: int
    b2: int
    signature: int
    even: bool
    free_rank: int  # pi1 is free of this rank
    # exponent sum of each curve word, per family
    exponents: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def euler(self) -> int:
        return 2 - 2 * self.b1 + self.b2

    @property
    def parity(self) -> str:
        return "even" if self.even else "odd"

    def homology(self):
        """H0..H4 as (rank, torsion) pairs; library sums are torsion-free."""
        return ((1, ()), (self.b1, ()), (self.b2, ()), (self.b1, ()), (1, ()))

    def hom_count(self, degree: int) -> int:
        return factorial(degree) ** self.free_rank

    def homology_matches_s4(self) -> bool:
        return self.b1 == 0 and self.b2 == 0


def _piece(genus, k, b1, b2, signature, even, free_rank, alpha, beta, gamma):
    return Model(genus, k, b1, b2, signature, even, free_rank, (alpha, beta, gamma))


# The library diagrams' curve words are a1 | b1 | a1 b1 (CP2), a1 | b1 | a1 B1
# (CP2BAR), a1 | a1 | a1 (S1xS3) and a1 a2 | b1 b2 | a1 b2, a2 b1 (S2xS2); the
# exponent sums below are read off those words.
KNOWN = {
    "S4": _piece(0, (0, 0, 0), 0, 0, 0, True, 0, (), (), ()),
    "CP2": _piece(1, (0, 0, 0), 0, 1, 1, False, 0, (1,), (1,), (2,)),
    "CP2BAR": _piece(1, (0, 0, 0), 0, 1, -1, False, 0, (1,), (1,), (0,)),
    "S1xS3": _piece(1, (1, 1, 1), 1, 0, 0, True, 1, (1,), (1,), (1,)),
    "S2xS2": _piece(2, (0, 0, 0), 0, 2, 0, True, 0, (1, 1), (1, 1), (2, 2)),
}


def connected_sum(a: Model, b: Model) -> Model:
    return Model(
        a.genus + b.genus,
        tuple(x + y for x, y in zip(a.k, b.k)),
        a.b1 + b.b1,
        a.b2 + b.b2,
        a.signature + b.signature,
        a.even and b.even,
        a.free_rank + b.free_rank,
        tuple(x + y for x, y in zip(a.exponents, b.exponents)),
    )


def stabilize(m: Model, family: str) -> Model:
    """The new curve is b_{g+1} in ``family`` and a_{g+1} elsewhere: exponent 1."""
    k = list(m.k)
    k[_PAIR_GAIN[family]] += 1
    return replace(
        m,
        genus=m.genus + 1,
        k=tuple(k),
        exponents=tuple(e + (1,) for e in m.exponents),
    )


def slide(m: Model, family: str, i: int, j: int, sign: int) -> Model:
    """Curve i becomes w_i * c w_j^sign c^-1: its exponent sum gains sign * e_j."""
    f = FAMILIES.index(family)
    row = list(m.exponents[f])
    row[i] += sign * row[j]
    exps = list(m.exponents)
    exps[f] = tuple(row)
    return replace(m, exponents=tuple(exps))


def invariants_report(m: Model) -> str:
    """The exact stdout of ``trisect invariants`` for a diagram of ``m``."""

    def group(rank):
        return "0" if rank == 0 else "Z" if rank == 1 else f"Z^{rank}"

    lines = [f"genus: {m.genus}"]
    lines += [f"k_{name}: {k}" for name, k in zip(("alpha_beta", "beta_gamma", "gamma_alpha"), m.k)]
    lines.append(f"euler: {m.euler}")
    lines += [f"H{i}: {group(rank)}" for i, (rank, _) in enumerate(m.homology())]
    lines += [
        f"form_rank: {m.b2}",
        f"form_signature: {m.signature}",
        f"form_parity: {m.parity}",
    ]
    return "\n".join(lines) + "\n"


# The six faces of the cube as (source, middle, middle, sink), in the order
# the verifier reports them.
CUBE_FACES = (
    ("surface", "handlebody_alpha", "handlebody_beta", "sector_alpha_beta"),
    ("surface", "handlebody_beta", "handlebody_gamma", "sector_beta_gamma"),
    ("surface", "handlebody_gamma", "handlebody_alpha", "sector_gamma_alpha"),
    ("handlebody_alpha", "sector_alpha_beta", "sector_gamma_alpha", "total"),
    ("handlebody_beta", "sector_beta_gamma", "sector_alpha_beta", "total"),
    ("handlebody_gamma", "sector_gamma_alpha", "sector_beta_gamma", "total"),
)

SECTORS = ("sector_alpha_beta", "sector_beta_gamma", "sector_gamma_alpha")


def _sector_families(sector: str) -> tuple[str, str]:
    first, second = sector[len("sector_"):].split("_")
    return first, second


def corrupted_cube_failures(m: Model, sector: str) -> tuple[int, ...]:
    """Indices of the faces that fail once ``sector`` is replaced by Z/2.

    The corruption is the one the benchmark applies: the sector becomes
    <x | x^2>, every incoming generator maps to x and x maps to the
    identity.  A face fails exactly when the abelianizations of its
    pushout and its sink differ:

    * the face with the sector as sink compares H1 of the true sector,
      which is free, against Z/2, so it always fails;
    * a face with the sector as a middle corner identifies every generator
      of the other middle sector S with x, so its pushout is Z/gcd(2, e)
      over the exponent sums e of S's curve words; the sink is pi1 of the
      manifold, with abelianization Z^b1.  The face fails unless b1 = 0
      and some curve of S has odd exponent sum;
    * the other four faces do not involve the sector and hold.
    """
    failed = []
    for index, (_, mid1, mid2, sink) in enumerate(CUBE_FACES):
        if sink == sector:
            failed.append(index)
        elif sector in (mid1, mid2):
            other = mid2 if mid1 == sector else mid1
            exps = [
                e
                for fam in _sector_families(other)
                for e in m.exponents[FAMILIES.index(fam)]
            ]
            pushout_trivial = any(e % 2 for e in exps)
            if not (m.b1 == 0 and pushout_trivial):
                failed.append(index)
    return tuple(failed)
