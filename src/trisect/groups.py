"""Finitely presented groups attached to trisection diagrams.

Fundamental-group presentations, abelianization, bounded Tietze
simplification, counting homomorphisms to small symmetric groups, and the
eight-vertex cube of quotients with its verification routine.

Presentations are checked where they enter: ``Presentation(...)`` and
``presentation()`` check every token of words from outside.  Presentations
built here from words that are valid by construction (the quotients of a
validated diagram, Tietze results and cube pushouts) skip that check
through ``_presentation``, as matrices built here skip ``IntMatrix``'s
through ``intmatrix._matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, filterfalse, permutations

from .diagrams import FAMILY_NAMES, TrisectionDiagram
from .intmatrix import IntMatrix, _matrix, quotient_invariants
from .words import Word, block_index, cyclic_reduce, free_reduce, invert_word

DEFAULT_HOM_CAP = 10_000_000
DEFAULT_TIETZE_BUDGET = 10_000  # Tietze steps; invariants and the CLI share it


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
    """A finite presentation; relators are nonempty, freely reduced words in 1..n.

    The constructor checks every code and name and stores ``relators`` and
    ``names`` as tuples.
    """

    num_generators: int
    relators: tuple[Word, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.num_generators
        if type(n) is not int:
            raise TypeError(f"generator count {n!r} is not an int")
        if n < 0:
            raise ValueError("negative generator count")
        # stored as tuples, so an equal presentation built from lists hashes
        object.__setattr__(self, "relators", tuple(map(tuple, self.relators)))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != n:
                raise ValueError("need one name per generator")
            if bad := [name for name in self.names if not isinstance(name, str)]:
                raise TypeError(f"generator name {bad[0]!r} is not a str")
        for r in self.relators:
            if not r:
                raise ValueError("empty relator (builders drop these)")
            prev = 0
            for t in r:
                if type(t) is not int:
                    raise TypeError(f"generator code {t!r} is not an int")
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
    """Build a presentation, freely reducing relators and dropping empty ones.

    Like ``Presentation(...)``, this is where outside words enter, so the
    result is checked in full.
    """
    reduced = tuple(r for r in (free_reduce(w) for w in relators) if r)
    return Presentation(num_generators, reduced, names)


def _presentation(n: int, relators: tuple[Word, ...], names: tuple[str, ...] | None) -> Presentation:
    """Trusted constructor for presentations built inside the package:
    ``relators`` is already a tuple of nonempty, freely reduced int tuples
    in 1..n and ``names`` a tuple of n names or None, so nothing is checked."""
    p = object.__new__(Presentation)
    object.__setattr__(p, "num_generators", n)
    object.__setattr__(p, "relators", relators)
    object.__setattr__(p, "names", names)
    return p


def _surface_relator(genus: int) -> Word:
    # product of commutators [a_i, b_i] in the (a-block, b-block) numbering
    rel = []
    for i in range(1, genus + 1):
        rel += [i, genus + i, -i, -(genus + i)]
    return tuple(rel)


# bounded, so a long-lived process does not keep a table for every genus it saw
@lru_cache(maxsize=64)
def _block_letters(genus: int) -> dict[int, int]:
    """Each token code of genus ``genus``, signed, to its signed block index.

    The one dict is shared by every caller, which only reads it.
    """
    return {s * c: s * block_index(c, genus) for c in range(1, 2 * genus + 1) for s in (1, -1)}


def _curve_relator(word: Word, genus: int) -> Word:
    """A curve word relabelled into the (a_1..a_g, b_1..b_g) numbering.

    A curve's word is cyclically reduced, and relabelling letters by a
    bijection that commutes with inversion keeps it so: no reduction is
    needed.
    """
    return tuple(map(_block_letters(genus).__getitem__, word))


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
        name: [r for r in (_curve_relator(w, g) for w in d.family(name).words) if r]
        for name in FAMILY_NAMES
    }

    def quotient(*families):
        return _presentation(2 * g, tuple(surf + [r for f in families for r in curves[f]]), names)

    return quotient


def pi1_presentation(d: TrisectionDiagram) -> Presentation:
    """Fundamental group of the encoded 4-manifold.

    Generators a_1..a_g, b_1..b_g; relators are the surface relator plus all
    3g curve words.  Duplicate relators are kept as they come.
    """
    return _surface_quotients(d)(*FAMILY_NAMES)


def _exponent_vector(word: Word, n: int) -> tuple[int, ...]:
    vec = [0] * n
    for t in word:
        vec[abs(t) - 1] += 1 if t > 0 else -1
    return tuple(vec)


def relator_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum rows of the relators."""
    n = p.num_generators
    return _matrix(tuple(_exponent_vector(r, n) for r in p.relators), n)


def abelianize_presentation(p: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion divisors) of the abelianized group."""
    return quotient_invariants(p.num_generators, relator_matrix(p))


def _canonical_rotation(w: Word) -> Word:
    """Lexicographically least rotation of w or of its inverse."""
    if not w:
        return ()
    iw = invert_word(w)
    m = min(min(w), min(iw))  # a least rotation starts at the least letter
    n = len(w)  # rotations are the length-n slices of the doubled word
    # a generator, so only the best rotation so far is alive: O(n) memory
    return min(v[s : s + n] for v in (w + w, iw * 2) for s in range(n) if v[s] == m)


def _canonical(w) -> Word:
    """The canonical rotation of the cyclic reduction of w; () when it is trivial."""
    return _canonical_rotation(cyclic_reduce(w))


def _shorten(u: Word, v: Word) -> Word | None:
    """Shorten relator u using relator v, or None.

    Replaces the first cyclic subword of u, in the order (v before v^-1,
    start in v, start in u), that matches more than half of v or v^-1 by the
    inverse of the rest.  Its first len(v) // 2 + 1 letters decide a match
    (free reduction cancels any more), looked up in a hash index of u.
    """
    nu, nv = len(u), len(v)
    h = nv // 2 + 1
    if nv < 2 or h > nu:
        return None
    du = u + u
    starts: dict[int, list[int]] = {}
    for start in range(nu):
        starts.setdefault(hash(du[start : start + h]), []).append(start)
    for vv in (v, invert_word(v)):
        dv = vv + vv
        for s in range(nv):
            piece = dv[s : s + h]
            for start in starts.get(hash(piece), ()):
                if du[start : start + h] == piece:  # 2h > nv: the result is shorter than u
                    return cyclic_reduce(invert_word(dv[s + h : s + nv]) + du[start + h : start + nu])
    return None


def tietze_simplify(p: Presentation, budget: int = DEFAULT_TIETZE_BUDGET) -> Presentation:
    """Deterministic bounded simplification.

    Repeats two moves until the budget runs out or nothing applies:
    eliminate a generator that occurs exactly once in some relator
    (substituting its expression everywhere), and shorten one relator by a
    cyclic piece of another.  The pair (generator count, total relator
    length) strictly decreases lexicographically, so a fixpoint exists and
    the result is idempotent.

    The relators are kept as a set of nonempty canonical words, so the
    result depends on the set of canonical relators alone.  Each step sorts
    the set, shortest first and then lexicographically, and takes the first
    relator with a generator that occurs once (the least such generator),
    or else the first pair (u, v) in which v shortens u.  A move
    canonicalizes only what it changed: the substituted relators after an
    elimination, or the one shortened relator.  Generators keep their
    labels until the end, when the survivors are numbered 1..n.

    The first steps kill generators.  A one-letter relator sorts first,
    that of the largest generator ahead, and its generator occurs once in
    it, so while one exists the loop kills the largest such generator, and
    it ends up killing exactly the one-letter closure S: the generators of
    the one-letter relators, then those their deletion leaves, and so on.
    Killing is a homomorphism of free groups, so the canonical relators
    after the kills depend on the killed set alone: kills run on the
    cyclically reduced relators, and each survivor is canonicalized once.
    The input relators are nonempty and freely reduced, so only those whose
    first and last letters cancel are reduced first.  S has at most n
    generators, so a budget of at least n kills each round's one-letter
    generators at once.  A smaller budget kills one largest generator per
    step, until S or the budget is spent.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    eliminated: set[int] = set()
    # relators are nonempty and freely reduced: only one whose ends cancel
    # needs a cyclic reduction, which leaves it nonempty
    rels = {cyclic_reduce(r) if r[0] == -r[-1] else r for r in p.relators}
    while len(eliminated) < budget and (kill := {abs(w[0]) for w in rels if len(w) == 1}):
        if budget < p.num_generators:  # one kill per step, in the loop's own order
            kill = {max(kill)}
        eliminated |= kill
        dead = kill | {-g for g in kill}
        rels = {
            w if dead.isdisjoint(w) else cyclic_reduce(filterfalse(dead.__contains__, w))
            for w in rels
        }
        rels.discard(())
    rels = {_canonical_rotation(w) for w in rels}
    for _ in range(budget - len(eliminated)):
        order = sorted(rels, key=lambda w: (len(w), w))
        target = None
        for r in order:
            counts: dict[int, int] = {}
            for t in r:
                counts[abs(t)] = counts.get(abs(t), 0) + 1
            singles = sorted(g for g, c in counts.items() if c == 1)
            if singles:
                target = (r, singles[0])
                break
        if target is not None:
            r, gen = target
            rels.remove(r)
            pos = next(idx for idx, t in enumerate(r) if abs(t) == gen)
            r = r[pos:] + r[:pos]
            head, tail = r[0], r[1:]
            rep = invert_word(tail) if head > 0 else tail
            image = {gen: rep, -gen: invert_word(rep)}
            rels = {
                _canonical([x for t in w for x in image.get(t, (t,))])
                if gen in w or -gen in w
                else w
                for w in rels
            }
            rels.discard(())
            eliminated.add(gen)
            continue
        pairs = ((u, _shorten(u, v)) for u in order for v in order if u != v)
        u, cand = next(((u, c) for u, c in pairs if c is not None), (None, None))
        if u is None:
            break
        rels.remove(u)
        rels.add(_canonical(cand))
        rels.discard(())
    # numbering the survivors in order is monotone and commutes with
    # inversion, so it keeps each relator canonical and the order sorted
    survivors = [g for g in range(1, p.num_generators + 1) if g not in eliminated]
    label = {g: i for i, g in enumerate(survivors, 1)}
    order = sorted(rels, key=lambda w: (len(w), w))
    rels = tuple(tuple(label[t] if t > 0 else -label[-t] for t in r) for r in order)
    names = p.generator_names()
    return _presentation(len(survivors), rels, tuple(names[g - 1] for g in survivors))


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
    local = {g: i for i, g in enumerate(sorted({abs(t) for r in p.relators for t in r}))}
    m = len(local)
    free = size ** (n - m)
    if m == 0:
        return free

    perms = list(permutations(range(degree)))
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


def reduced_pi1(d: TrisectionDiagram, budget: int = DEFAULT_TIETZE_BUDGET) -> Presentation:
    """``tietze_simplify(pi1_presentation(d), budget)``, once per diagram object and budget.

    Kept by budget in ``d._reduced_pi1``, a cached property; a raise is not
    kept, so a negative budget raises ``ValueError`` on every call.
    """
    kept = d._reduced_pi1
    return kept.get(budget) or kept.setdefault(budget, tietze_simplify(pi1_presentation(d), budget))


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
    times.  The reduction is :func:`reduced_pi1`, so counts into several
    targets and :func:`~trisect.invariants.poincare_candidate_check` on one
    diagram object share it.
    """
    return count_homs(reduced_pi1(d, simplify_budget), degree, cap)


# --- the cube of groups -------------------------------------------------

_VERTEX_FAMILIES = {
    "surface": (),
    "handlebody_alpha": ("alpha",),
    "handlebody_beta": ("beta",),
    "handlebody_gamma": ("gamma",),
    "sector_alpha_beta": ("alpha", "beta"),
    "sector_beta_gamma": ("beta", "gamma"),
    "sector_gamma_alpha": ("gamma", "alpha"),
    "total": FAMILY_NAMES,
}
CUBE_VERTICES = tuple(_VERTEX_FAMILIES)

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


@lru_cache(maxsize=64)
def _identity_images(n: int) -> tuple[Word, ...]:
    """The images ``((1,), ..., (n,))`` of an identity map on n generators."""
    return tuple(zip(range(1, n + 1)))


def build_cube(d: TrisectionDiagram) -> GroupTrisectionCube:
    """The eight quotients of the surface group and the twelve quotient maps.

    Every vertex is presented on the surface generators; each map sends a
    generator to the same-named generator.  Requires all three Heegaard
    pairs to be homologically standard.
    """
    d._k_triple  # raises NotHomologicallyStandard if a pair has torsion
    quotient = _surface_quotients(d)
    vertices = {name: quotient(*families) for name, families in _VERTEX_FAMILIES.items()}
    identity = _identity_images(2 * d.genus)
    edges = tuple(CubeEdge(s, t, identity) for s, t in CUBE_EDGES)
    return GroupTrisectionCube(vertices, edges)


@dataclass(frozen=True)
class EdgeCheck:
    source: str
    target: str
    surjectivity: str  # "exact", "abelian" or "failed"
    # images of the source relators lie in the target's relator lattice, so
    # the map is a homomorphism on abelianizations (a necessary condition)
    relators_mapped: bool


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
        """No map failed its surjectivity or relator check, and no face failed."""
        return all(e.surjectivity != "failed" and e.relators_mapped for e in self.edges) and all(
            f.status != "Failed" for f in self.faces
        )


def _check_edge(
    source: str, target: str, images: tuple[Word, ...],
    src: Presentation, tgt: Presentation, tgt_abelian: tuple[int, tuple[int, ...]],
) -> EdgeCheck:
    """Surjectivity and relator check of the map ``source -> target`` with
    generator images ``images`` against its target's lattice.

    With L the target's relator lattice, each test adds rows to L and
    compares Z^n/L' with the target's abelianization ``tgt_abelian``.  A
    zero row, or a copy of a target relator row, leaves L' = L, so when
    every added row is of that kind the answer is ``tgt_abelian`` and no
    Smith form is taken.
    """
    nt = tgt.num_generators
    tgt_rows = tuple(_exponent_vector(r, nt) for r in tgt.relators)
    in_lattice = {(0,) * nt, *tgt_rows}

    def quotient(extra):
        if in_lattice.issuperset(extra):
            return tgt_abelian
        return quotient_invariants(nt, _matrix(tgt_rows + extra, nt))

    covered = {abs(w[0]) for w in images if len(w) == 1}
    if covered >= set(range(1, nt + 1)):
        surjectivity = "exact"
    else:
        free, torsion = quotient(tuple(_exponent_vector(w, nt) for w in images))
        surjectivity = "abelian" if free == 0 and not torsion else "failed"

    def image(r):  # left unreduced: cancellation keeps exponent sums
        return [x for t in r for x in (images[t - 1] if t > 0 else invert_word(images[-t - 1]))]

    # Z^n/L -> Z^n/L' is onto.  Finitely generated abelian groups are
    # Hopfian, so if the two have equal invariants the map is an isomorphism:
    # L' = L, and the images already lie in L.  Unequal invariants put some
    # image outside L.
    mapped = quotient(tuple(_exponent_vector(image(r), nt) for r in src.relators)) == tgt_abelian
    return EdgeCheck(source, target, surjectivity, mapped)


def _pushout_presentation(
    q1: Presentation, q2: Presentation, images1: tuple[Word, ...], images2: tuple[Word, ...]
) -> Presentation:
    """Presentation of the pushout of q1 <- src -> q2.

    Generators of both targets side by side, all their relators, plus one
    identification relator images1[i] * images2[i]^-1 per source generator
    i, freely reduced, when it is not trivial.  The relators of q1 and q2
    are reduced and shifting keeps them so, and :func:`verify_cube` passes
    int tuples checked against their targets, so the result is built unchecked.
    """
    n1, n2 = q1.num_generators, q2.num_generators

    def shift(word):
        return tuple(t + n1 if t > 0 else t - n1 for t in word)

    relators = list(q1.relators)
    relators += [shift(r) for r in q2.relators]
    for w1, w2 in zip(images1, images2):
        if w := free_reduce(w1 + invert_word(shift(w2))):
            relators.append(w)
    return _presentation(n1 + n2, tuple(relators), None)


def verify_cube(cube: GroupTrisectionCube, budget: int = DEFAULT_TIETZE_BUDGET) -> CubeReport:
    """Check surjectivity of the twelve maps and the pushout property of the six faces.

    Two exact syntactic rules come first; they settle every map and face of
    a cube from :func:`build_cube`.  An identity map (equal generator
    counts, each generator sent to itself) whose source relators are all
    target relators is an ``exact`` surjection with its relators mapped.
    A face whose four maps are identities presents its pushout as the free
    group modulo the union of its middle relators, so it is ``Verified``
    when that union is the set of its sink's relators.

    Every other edge gets the generic check against its target's relator
    lattice, which takes no Smith form when the rows it adds are all zero or
    copies of target relator rows.  Every other face's pushout presentation
    and claimed vertex are reduced by Tietze moves within the budget (each
    distinct claimed vertex once), and the reduced forms are compared first:
    ``Verified`` when they are identical.  Only on a mismatch is the reduced
    pushout abelianized: ``HomologicallyVerified`` when it agrees with the
    claimed vertex's abelianization (of its raw presentation; Tietze moves
    keep the group), ``Failed`` when not.  Abelianizations of vertices and
    Tietze forms are computed only for the edges and faces that need them,
    at most once each per call.  A negative budget is a usage error
    (``ValueError``), even when the rules settle every face.  Missing or
    extra vertices or edges, and a map with the wrong number of images or an
    image letter that is not a generator of its target, raise
    ``MalformedCubeError`` before any check, the latter in one pass over the
    maps that stores each map as int tuples in the image table that the
    rules, the edge checks and the pushouts read.  Every letter is checked
    before the identity rule, because images such as ``((1.0,), (2.0,))``
    or ``((True,), (2,))`` equal an identity's.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if set(cube.vertices) != set(CUBE_VERTICES):
        raise MalformedCubeError(
            f"expected vertices {sorted(CUBE_VERTICES)}, got {sorted(cube.vertices)}"
        )
    if sorted((e.source, e.target) for e in cube.edges) != sorted(CUBE_EDGES):
        raise MalformedCubeError("cube does not have the twelve expected edges")
    v = cube.vertices
    images: dict[tuple[str, str], tuple[Word, ...]] = {}
    identities: set[tuple[str, str]] = set()
    for e in cube.edges:
        n, nt = v[e.source].num_generators, v[e.target].num_generators
        if len(e.images) != n:
            raise MalformedCubeError(
                f"map {e.source} -> {e.target} has {len(e.images)} images "
                f"for {n} generators"
            )
        words = tuple(map(tuple, e.images))
        for t in chain.from_iterable(words):
            if type(t) is not int or t == 0 or abs(t) > nt:
                raise MalformedCubeError(
                    f"map {e.source} -> {e.target} mentions generator {t} "
                    f"outside the target"
                )
        images[e.source, e.target] = words
        if n == nt and words == _identity_images(n):
            identities.add((e.source, e.target))
    relators = {name: set(p.relators) for name, p in v.items()}
    # memos: each vertex abelianized and Tietze-reduced at most once, and
    # only when needed (a result is a nonempty tuple or a Presentation, so
    # never falsy)
    abelian: dict[str, tuple[int, tuple[int, ...]]] = {}
    reduced: dict[str, Presentation] = {}

    def abelian_of(name):
        return abelian.get(name) or abelian.setdefault(name, abelianize_presentation(v[name]))

    edge_checks = tuple(  # the table's keys are the edges, in the cube's order
        EdgeCheck(s, t, "exact", True)
        if (s, t) in identities and relators[s] <= relators[t]
        else _check_edge(s, t, images[s, t], v[s], v[t], abelian_of(t))
        for s, t in images
    )
    face_checks = []
    for source, mid1, mid2, sink in CUBE_FACES:
        square = ((source, mid1), (source, mid2), (mid1, sink), (mid2, sink))
        if identities.issuperset(square) and relators[mid1] | relators[mid2] == relators[sink]:
            status = "Verified"
        else:
            pushout = _pushout_presentation(
                v[mid1], v[mid2], images[source, mid1], images[source, mid2]
            )
            left = tietze_simplify(pushout, budget)
            right = reduced.get(sink) or reduced.setdefault(sink, tietze_simplify(v[sink], budget))
            if (left.num_generators, left.relators) == (right.num_generators, right.relators):
                status = "Verified"
            elif abelianize_presentation(left) == abelian_of(sink):
                status = "HomologicallyVerified"
            else:
                status = "Failed"
        face_checks.append(FaceCheck((source, mid1, mid2, sink), status))
    return CubeReport(edge_checks, tuple(face_checks))
