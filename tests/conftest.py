import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from trisect import (
    InvalidCutSystemError,
    NotHomologicallyStandard,
    TrisectionDiagram,
    connected_sum,
    cut_system,
    k_triple,
    parse,
    slide_family,
    stabilize,
    standard_diagram,
)
from trisect.diagrams import FAMILY_NAMES
from trisect.words import token_code

FIXTURES = Path(__file__).parent / "fixtures"

# name -> diagram builder; the connected sum rounds out the known-manifold suite
LIBRARY_BUILDERS = {
    "S4": lambda: standard_diagram("S4"),
    "CP2": lambda: standard_diagram("CP2"),
    "CP2BAR": lambda: standard_diagram("CP2BAR"),
    "S1xS3": lambda: standard_diagram("S1xS3"),
    "S2xS2": lambda: standard_diagram("S2xS2"),
    "CP2+CP2BAR": lambda: connected_sum(standard_diagram("CP2"), standard_diagram("CP2BAR")),
}


@pytest.fixture(scope="session")
def library():
    return {name: build() for name, build in LIBRARY_BUILDERS.items()}


def random_move_sequence(d, rng: random.Random, max_moves: int = 10):
    """Apply 1..max_moves random slides/stabilizations.

    Returns (diagram, stabilizations-per-family).  Slides need at least two
    curves, so genus <= 1 diagrams always stabilize first.
    """
    stabs = dict.fromkeys(FAMILY_NAMES, 0)
    for _ in range(rng.randint(1, max_moves)):
        if d.genus < 2 or rng.random() < 0.25:
            fam = rng.choice(FAMILY_NAMES)
            d = stabilize(d, fam)
            stabs[fam] += 1
        else:
            fam = rng.choice(FAMILY_NAMES)
            i, j = rng.sample(range(d.genus), 2)
            conj = tuple(
                rng.choice((1, -1)) * token_code(rng.choice("ab"), rng.randint(1, d.genus))
                for _ in range(rng.randint(0, 2))
            )
            d = slide_family(d, fam, i, j, conj, rng.choice((1, -1)))
    return d, stabs


@st.composite
def moved_diagrams(draw, max_moves: int = 8, torsion: bool = False):
    """A library diagram, or the connected sum of two, after random slides
    and stabilizations.  With ``torsion``, about half the draws sum
    ``h1_torsion.tri`` (H1 = H2 = Z/2, b2 = 0) on one side before the moves."""
    names = st.sampled_from(sorted(LIBRARY_BUILDERS))
    d = LIBRARY_BUILDERS[draw(names)]()
    if draw(st.booleans()):
        d = connected_sum(d, LIBRARY_BUILDERS[draw(names)]())
    if torsion and draw(st.booleans()):
        t = parse((FIXTURES / "h1_torsion.tri").read_text())
        d = connected_sum(d, t) if draw(st.booleans()) else connected_sum(t, d)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return random_move_sequence(d, rng, max_moves=max_moves)[0]


@pytest.fixture
def move_engine():
    return random_move_sequence


def raw_word(rng: random.Random, genus: int, length: int):
    """``length`` random codes on the genus-``genus`` generators; a code that
    cancels the one before it is drawn again."""
    word = []
    while len(word) < length:
        code = rng.choice((1, -1)) * rng.randint(1, 2 * genus)
        if not word or code != -word[-1]:
            word.append(code)
    return tuple(word)


def raw_cut_system(rng: random.Random, genus: int, max_len: int):
    """The first of up to 2,000 draws of ``genus`` raw words, each of length
    1..``max_len``, that ``cut_system`` accepts."""
    for _ in range(2000):
        try:
            return cut_system([raw_word(rng, genus, rng.randint(1, max_len)) for _ in range(genus)], genus)
        except InvalidCutSystemError:
            pass
    raise AssertionError(f"no genus-{genus} cut system in 2,000 draws")


def raw_diagrams():
    """A seeded sweep of diagrams built from raw curve words, off the orbit of
    the library under moves: three raw cut systems per diagram, kept when no
    pair raises ``NotHomologicallyStandard``."""
    rng = random.Random(7)
    out = []
    for genus, max_len, count in ((1, 4, 150), (2, 4, 150), (3, 3, 100)):  # (g, max word length, diagrams)
        found = 0
        while found < count:
            d = TrisectionDiagram(genus, *(raw_cut_system(rng, genus, max_len) for _ in FAMILY_NAMES))
            try:
                k_triple(d)
            except NotHomologicallyStandard:
                continue
            out.append(d)
            found += 1
    return out


@pytest.fixture(scope="session")
def raw_population():
    return raw_diagrams()


def determinant(m) -> int:
    """Exact determinant of a square ``IntMatrix`` by fraction-free Bareiss
    elimination: the tests' oracle for unimodularity and for signs."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
