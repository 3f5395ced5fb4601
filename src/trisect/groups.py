"""Finitely presented groups attached to trisection diagrams.

Fundamental-group presentations, abelianization, bounded Tietze
simplification, counting homomorphisms to small symmetric groups, and the
eight-vertex cube of quotients with its verification routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .diagrams import FAMILY_NAMES, TrisectionDiagram
from .intmatrix import IntMatrix, _in_lattice, lattice_basis, quotient_invariants
from .invariants import k_triple
from .words import Word, block_index, cyclic_reduce, free_reduce, invert_word

DEFAULT_HOM_CAP = 10_000_000
DEFAULT_TIETZE_BUDGET = 10_000


class EnumerationRefused(Exception):
    """Raised when a homomorphism count would exceed the configured cap."""

    def __init__(self, cost, cap):
        self.cost = cost
        self.cap = cap
        super().__init__(f"enumeration cost {cost} exceeds cap {cap}")


class MalformedCubeError(Exception):
    """The cube does not have the expected vertices, edges or map arities."""


@dataclass(frozen=True)
class Presentation:
    """A finite presentation; relators are freely reduced words in 1..n."""

    num_generators: int
    relators: tuple[Word, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.num_generators
        if n < 0:
            raise ValueError("negative generator count")
        if self.names is not None and len(self.names) != n:
            raise ValueError("need one name per generator")
        for r in self.relators:
            if not r:
                raise ValueError("empty relator (builders drop these)")
            prev = 0
            for t in r:
                if t == 0 or abs(t) > n:
                    raise ValueError(f"bad generator {t} in relator (n={n})")
                if prev == -t:
                    raise ValueError(f"relator {r} is not freely reduced")
                prev = t

    def generator_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"x{i}" for i in range(1, self.num_generators + 1))


def presentation(num_generators: int, relators, names=None) -> Presentation:
    """Build a presentation, freely reducing relators and dropping empty ones."""
    reduced = tuple(r for r in (free_reduce(w) for w in relators) if r)
    return Presentation(num_generators, reduced, tuple(names) if names is not None else None)


def _surface_relator(genus: int) -> Word:
    # product of commutators [a_i, b_i] in the (a-block, b-block) numbering
    rel = []
    for i in range(1, genus + 1):
        rel += [i, genus + i, -i, -(genus + i)]
    return tuple(rel)


def _curve_relator(word: Word, genus: int) -> Word:
    out = []
    for c in word:
        t = block_index(c, genus)
        out.append(t if c > 0 else -t)
    return cyclic_reduce(out)


def _surface_quotients(d: TrisectionDiagram):
    """Quotients of the surface group of ``d``, as a function of family names.

    ``_surface_quotients(d)(*families)`` presents, on a_1..a_g, b_1..b_g,
    the quotient by the surface relator and the curve words of ``families``
    in that order.  Duplicate relators are kept as they come.
    """
    g = d.genus
    names = tuple(f"a{i}" for i in range(1, g + 1)) + tuple(f"b{i}" for i in range(1, g + 1))
    surf = [_surface_relator(g)] if g else []
    curves = {
        name: [r for r in (_curve_relator(c.word, g) for c in d.family(name).curves) if r]
        for name in FAMILY_NAMES
    }

    def quotient(*families):
        return Presentation(2 * g, tuple(surf + [r for f in families for r in curves[f]]), names)

    return quotient


def pi1_presentation(d: TrisectionDiagram) -> Presentation:
    """Fundamental group of the encoded 4-manifold.

    Generators a_1..a_g, b_1..b_g; relators are the surface relator plus all
    3g curve words.  Duplicate relators are kept as they come.
    """
    return _surface_quotients(d)(*FAMILY_NAMES)


def _exponent_vector(word: Word, n: int) -> list[int]:
    vec = [0] * n
    for t in word:
        vec[abs(t) - 1] += 1 if t > 0 else -1
    return vec


def relator_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum rows of the relators."""
    n = p.num_generators
    return IntMatrix([_exponent_vector(r, n) for r in p.relators], n)


def abelianize_presentation(p: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion divisors) of the abelianized group."""
    return quotient_invariants(p.num_generators, relator_matrix(p))


def _canonical_rotation(w: Word) -> Word:
    """Lexicographically least rotation of w or of its inverse."""
    n = len(w)  # rotations are the length-n slices of the doubled word
    return min([v[s : s + n] for v in (w + w, invert_word(w) * 2) for s in range(n)], default=())


def _normalize_relators(relators, normal=()) -> list[Word]:
    """Distinct nonempty canonical relators, shortest first, then lexicographic.

    ``normal`` holds relators already canonical and distinct; they are kept
    as they are and only ``relators`` are canonicalized.  The result depends
    on the set of canonical relators alone.
    """
    out = list(normal)
    seen = set(out)
    for r in relators:
        r = _canonical_rotation(cyclic_reduce(r))
        if r and r not in seen:
            seen.add(r)
            out.append(r)
    out.sort(key=lambda w: (len(w), w))
    return out


def _shorten(u: Word, v: Word) -> Word | None:
    """Shorten relator u using relator v, or None.

    Looks for a cyclic subword of u matching more than half of v (or of
    v^-1) and replaces it by the inverse of the remainder of v.
    """
    nu, nv = len(u), len(v)
    if nu == 0 or nv < 2:
        return None
    du = u + u
    for vv in (v, invert_word(v)):
        dv = vv + vv
        for s in range(nv):
            for start in range(nu):
                length = 0
                cap = min(nv, nu)
                while length < cap and du[start + length] == dv[s + length]:
                    length += 1
                if 2 * length > nv:
                    rest = dv[s + length : s + nv]
                    u_rot = du[start : start + nu]
                    cand = cyclic_reduce(invert_word(rest) + u_rot[length:])
                    if len(cand) < nu:
                        return cand
    return None


def tietze_simplify(p: Presentation, budget: int = DEFAULT_TIETZE_BUDGET) -> Presentation:
    """Deterministic bounded simplification.

    Repeats two moves until the budget runs out or nothing applies:
    eliminate a generator that occurs exactly once in some relator
    (substituting its expression everywhere), and shorten one relator by a
    cyclic piece of another.  The pair (generator count, total relator
    length) strictly decreases lexicographically, so a fixpoint exists and
    the result is idempotent.

    Relators are kept distinct, canonical and sorted, and each move
    canonicalizes only what it changed: the substituted relators after an
    elimination, or the one shortened relator.  Generators keep their
    labels until the end, when the survivors are numbered 1..n.  The result
    equals that of renumbering and renormalizing every relator after every
    move.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    eliminated = set()
    rels = _normalize_relators(p.relators)
    steps = 0
    while steps < budget:
        target = None
        for ri, r in enumerate(rels):
            counts: dict[int, int] = {}
            for t in r:
                counts[abs(t)] = counts.get(abs(t), 0) + 1
            singles = sorted(g for g, c in counts.items() if c == 1)
            if singles:
                target = (ri, singles[0])
                break
        if target is not None:
            ri, gen = target
            r = rels.pop(ri)
            pos = next(idx for idx, t in enumerate(r) if abs(t) == gen)
            r = r[pos:] + r[:pos]
            head, tail = r[0], r[1:]
            rep = invert_word(tail) if head > 0 else tail
            image = {gen: rep, -gen: invert_word(rep)}
            kept, substituted = [], []
            for w in rels:
                if gen in w or -gen in w:
                    substituted.append([x for t in w for x in image.get(t, (t,))])
                else:
                    kept.append(w)
            rels = _normalize_relators(substituted, kept)
            eliminated.add(gen)
            steps += 1
            continue
        found = None
        for i, u in enumerate(rels):
            for j, v in enumerate(rels):
                if i == j:
                    continue
                cand = _shorten(u, v)
                if cand is not None:
                    found = (i, cand)
                    break
            if found:
                break
        if found is None:
            break
        i, cand = found
        rels = _normalize_relators([cand], rels[:i] + rels[i + 1 :])
        steps += 1
    # numbering the survivors in order is monotone and commutes with
    # inversion, so it keeps each relator canonical and the list sorted
    survivors = [g for g in range(1, p.num_generators + 1) if g not in eliminated]
    label = {g: i for i, g in enumerate(survivors, 1)}
    rels = tuple(tuple(label[t] if t > 0 else -label[-t] for t in r) for r in rels)
    names = p.generator_names()
    return Presentation(len(survivors), rels, tuple(names[g - 1] for g in survivors))


def count_homs(p: Presentation, degree: int, cap: int = DEFAULT_HOM_CAP) -> int:
    """Exact number of homomorphisms to the symmetric group on ``degree`` letters.

    A generator in no relator is a free factor Z and contributes
    ``degree!`` without enumeration.  The generators the relators mention
    get their images by backtracking in increasing order with an explicit
    stack; a relator is checked as soon as all generators it mentions are
    assigned.  Refuses when the raw assignment count (degree!)^n of the
    whole presentation exceeds ``cap``; a negative ``cap`` is a usage error.
    """
    if not 1 <= degree <= 5:
        raise ValueError("degree must be between 1 and 5")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    n = p.num_generators
    size = math.factorial(degree)
    cost = size**n
    if cost > cap:
        raise EnumerationRefused(cost, cap)
    if n == 0 or degree == 1:
        return 1  # S1 is trivial: one assignment, and every relator holds
    local = {g: i for i, g in enumerate(sorted({abs(t) for r in p.relators for t in r}))}
    m = len(local)
    free = size ** (n - m)
    if m == 0:
        return free

    perms = sorted(permutations(range(degree)))
    index = {perm: i for i, perm in enumerate(perms)}
    mul = [[index[tuple(pp[qq[k]] for k in range(degree))] for qq in perms] for pp in perms]
    inv = [index[tuple(sorted(range(degree), key=perm.__getitem__))] for perm in perms]
    e = index[tuple(range(degree))]

    by_max: list[list[list[tuple[int, bool]]]] = [[] for _ in range(m)]
    for r in p.relators:
        word = [(local[abs(t)], t > 0) for t in r]
        by_max[max(gi for gi, _ in word)].append(word)

    assign = [0] * m
    nxt = [0] * m  # next image to try at each level
    count = 0
    level = 0
    while level >= 0:
        x = nxt[level]
        if x == size:
            level -= 1
            continue
        nxt[level] = x + 1
        assign[level] = x
        for rel in by_max[level]:
            acc = e
            for gi, pos in rel:
                acc = mul[acc][assign[gi] if pos else inv[assign[gi]]]
            if acc != e:
                break
        else:
            if level + 1 == m:
                count += 1
            else:
                level += 1
                nxt[level] = 0
    return free * count


def diagram_hom_count(
    d: TrisectionDiagram,
    degree: int,
    simplify_budget: int = DEFAULT_TIETZE_BUDGET,
    cap: int = DEFAULT_HOM_CAP,
) -> int:
    """Hom count from pi1 of the diagram, after Tietze simplification.

    The count is a group invariant and Tietze moves preserve the group, so
    simplifying first changes nothing except feasibility: raw enumeration
    over 2g generators is hopeless once a diagram has been stabilized a few
    times.
    """
    return count_homs(tietze_simplify(pi1_presentation(d), simplify_budget), degree, cap)


# --- the cube of groups -------------------------------------------------

CUBE_VERTICES = (
    "surface",
    "handlebody_alpha",
    "handlebody_beta",
    "handlebody_gamma",
    "sector_alpha_beta",
    "sector_beta_gamma",
    "sector_gamma_alpha",
    "total",
)

CUBE_EDGES = (
    ("surface", "handlebody_alpha"),
    ("surface", "handlebody_beta"),
    ("surface", "handlebody_gamma"),
    ("handlebody_alpha", "sector_alpha_beta"),
    ("handlebody_beta", "sector_alpha_beta"),
    ("handlebody_beta", "sector_beta_gamma"),
    ("handlebody_gamma", "sector_beta_gamma"),
    ("handlebody_gamma", "sector_gamma_alpha"),
    ("handlebody_alpha", "sector_gamma_alpha"),
    ("sector_alpha_beta", "total"),
    ("sector_beta_gamma", "total"),
    ("sector_gamma_alpha", "total"),
)

# each face: (source, two middle corners, claimed pushout vertex)
CUBE_FACES = (
    ("surface", "handlebody_alpha", "handlebody_beta", "sector_alpha_beta"),
    ("surface", "handlebody_beta", "handlebody_gamma", "sector_beta_gamma"),
    ("surface", "handlebody_gamma", "handlebody_alpha", "sector_gamma_alpha"),
    ("handlebody_alpha", "sector_alpha_beta", "sector_gamma_alpha", "total"),
    ("handlebody_beta", "sector_beta_gamma", "sector_alpha_beta", "total"),
    ("handlebody_gamma", "sector_gamma_alpha", "sector_beta_gamma", "total"),
)


@dataclass(frozen=True)
class CubeEdge:
    source: str
    target: str
    images: tuple[Word, ...]  # image of each source generator, in target generators


@dataclass(frozen=True)
class GroupTrisectionCube:
    vertices: dict[str, Presentation]
    edges: tuple[CubeEdge, ...]

    def edge(self, source: str, target: str) -> CubeEdge:
        for e in self.edges:
            if e.source == source and e.target == target:
                return e
        raise KeyError((source, target))


def build_cube(d: TrisectionDiagram) -> GroupTrisectionCube:
    """The eight quotients of the surface group and the twelve quotient maps.

    Every vertex is presented on the surface generators; each map sends a
    generator to the same-named generator.  Requires all three Heegaard
    pairs to be homologically standard.
    """
    k_triple(d)  # raises NotHomologicallyStandard if a pair has torsion
    quotient = _surface_quotients(d)
    vertices = {
        "surface": quotient(),
        "handlebody_alpha": quotient("alpha"),
        "handlebody_beta": quotient("beta"),
        "handlebody_gamma": quotient("gamma"),
        "sector_alpha_beta": quotient("alpha", "beta"),
        "sector_beta_gamma": quotient("beta", "gamma"),
        "sector_gamma_alpha": quotient("gamma", "alpha"),
        "total": quotient("alpha", "beta", "gamma"),
    }
    identity = tuple((i,) for i in range(1, 2 * d.genus + 1))
    edges = tuple(CubeEdge(s, t, identity) for s, t in CUBE_EDGES)
    return GroupTrisectionCube(vertices, edges)


@dataclass(frozen=True)
class EdgeCheck:
    source: str
    target: str
    surjectivity: str  # "exact", "abelian" or "failed"
    relators_mapped: bool  # images of source relators lie in the target relator lattice, abelianized


@dataclass(frozen=True)
class FaceCheck:
    vertices: tuple[str, str, str, str]
    status: str  # "Verified", "HomologicallyVerified" or "Failed"


@dataclass(frozen=True)
class CubeReport:
    edges: tuple[EdgeCheck, ...]
    faces: tuple[FaceCheck, ...]

    @property
    def ok(self) -> bool:
        return all(e.surjectivity != "failed" for e in self.edges) and all(
            f.status != "Failed" for f in self.faces
        )


def _check_edge(
    edge: CubeEdge, src: Presentation, tgt: Presentation, tgt_basis: IntMatrix
) -> EdgeCheck:
    nt, images = tgt.num_generators, edge.images
    covered = {abs(w[0]) for w in images if len(w) == 1}
    if covered >= set(range(1, nt + 1)):
        surjectivity = "exact"
    else:
        rows = [_exponent_vector(w, nt) for w in images]
        rows += [_exponent_vector(r, nt) for r in tgt.relators]
        free, torsion = quotient_invariants(nt, IntMatrix(rows, nt))
        surjectivity = "abelian" if free == 0 and not torsion else "failed"

    def image(r):  # left unreduced: cancellation keeps exponent sums
        return [x for t in r for x in (images[t - 1] if t > 0 else invert_word(images[-t - 1]))]

    mapped = all(_in_lattice(tgt_basis, _exponent_vector(image(r), nt)) for r in src.relators)
    return EdgeCheck(edge.source, edge.target, surjectivity, mapped)


def _pushout_presentation(
    src: Presentation, q1: Presentation, q2: Presentation, e1: CubeEdge, e2: CubeEdge
) -> Presentation:
    """Presentation of the pushout of q1 <- src -> q2.

    Generators of both targets side by side, all their relators, plus one
    identification relator img1(x) * img2(x)^-1 per source generator.
    """
    n1, n2 = q1.num_generators, q2.num_generators

    def shift(word):
        return tuple(t + n1 if t > 0 else t - n1 for t in word)

    relators = list(q1.relators)
    relators += [shift(r) for r in q2.relators]
    for idx in range(src.num_generators):
        relators.append(free_reduce(e1.images[idx] + invert_word(shift(e2.images[idx]))))
    return presentation(n1 + n2, relators)


def verify_cube(cube: GroupTrisectionCube, budget: int = DEFAULT_TIETZE_BUDGET) -> CubeReport:
    """Check surjectivity of the twelve maps and the pushout property of the six faces.

    Each face's pushout presentation and its claimed vertex are reduced by
    Tietze moves within the budget (each distinct claimed vertex once), and
    the reduced forms are compared first: ``Verified`` when they are
    identical.  Only on a mismatch are the two reduced presentations
    abelianized: ``HomologicallyVerified`` when the abelianizations agree,
    ``Failed`` when they differ.  Tietze moves keep the group, so these are
    also the abelianizations of the raw presentations.
    """
    if set(cube.vertices) != set(CUBE_VERTICES):
        raise MalformedCubeError(
            f"expected vertices {sorted(CUBE_VERTICES)}, got {sorted(cube.vertices)}"
        )
    if sorted((e.source, e.target) for e in cube.edges) != sorted(CUBE_EDGES):
        raise MalformedCubeError("cube does not have the twelve expected edges")
    for e in cube.edges:
        src, tgt = cube.vertices[e.source], cube.vertices[e.target]
        if len(e.images) != src.num_generators:
            raise MalformedCubeError(
                f"map {e.source} -> {e.target} has {len(e.images)} images "
                f"for {src.num_generators} generators"
            )
        for w in e.images:
            for t in w:
                if t == 0 or abs(t) > tgt.num_generators:
                    raise MalformedCubeError(
                        f"map {e.source} -> {e.target} mentions generator {t} "
                        f"outside the target"
                    )
    # every vertex but the surface is the target of some edge
    bases = {
        name: lattice_basis(relator_matrix(p))
        for name, p in cube.vertices.items()
        if name != "surface"
    }
    edge_checks = tuple(
        _check_edge(e, cube.vertices[e.source], cube.vertices[e.target], bases[e.target])
        for e in cube.edges
    )
    # one Tietze form per distinct claimed vertex: the three sectors and the total
    reduced = {
        sink: tietze_simplify(cube.vertices[sink], budget)
        for sink in dict.fromkeys(face[-1] for face in CUBE_FACES)
    }
    face_checks = []
    for source, mid1, mid2, sink in CUBE_FACES:
        pushout = _pushout_presentation(
            cube.vertices[source],
            cube.vertices[mid1],
            cube.vertices[mid2],
            cube.edge(source, mid1),
            cube.edge(source, mid2),
        )
        left, right = tietze_simplify(pushout, budget), reduced[sink]
        if (left.num_generators, left.relators) == (right.num_generators, right.relators):
            status = "Verified"
        elif abelianize_presentation(left) == abelianize_presentation(right):
            status = "HomologicallyVerified"
        else:
            status = "Failed"
        face_checks.append(FaceCheck((source, mid1, mid2, sink), status))
    return CubeReport(edge_checks, tuple(face_checks))
