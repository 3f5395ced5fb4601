"""Words in the free group on the standard surface generators.

A word is a tuple of nonzero integer codes.  On a surface of genus g the
generators a_1, ..., a_g, b_1, ..., b_g are numbered

    a_i  <->  2*i - 1,        b_i  <->  2*i,

and negating a code inverts the generator.  Interleaving the a's and b's
keeps codes stable under the index shifts needed by connected sums.

Text form: whitespace-separated tokens such as ``a1 b2 A1``, where an
uppercase letter means the inverse; the empty word is written ``e``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache

Word = tuple[int, ...]

_TOKEN = re.compile(r"[abAB][1-9][0-9]*")


def token_code(kind: str, index: int, inverted: bool = False) -> int:
    """Integer code of the generator token ``kind`` ('a' or 'b'), 1-based index."""
    if kind not in ("a", "b") or index < 1:
        raise ValueError(f"bad generator token ({kind!r}, {index})")
    code = 2 * index - 1 if kind == "a" else 2 * index
    return -code if inverted else code


def token_kind_index(code: int) -> tuple[str, int]:
    """Kind and index of a token code, ignoring the sign.

    >>> token_kind_index(token_code("b", 3, inverted=True))
    ('b', 3)
    """
    c = abs(code)
    if c == 0:
        raise ValueError("0 is not a generator code")
    return ("a", (c + 1) // 2) if c % 2 else ("b", c // 2)


def free_reduce(tokens: Iterable[int]) -> Word:
    """Freely reduce a token sequence: cancel adjacent inverse pairs."""
    out: list[int] = []
    for t in tokens:
        if t == 0:
            raise ValueError("0 is not a generator code")
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def cyclic_reduce(tokens: Iterable[int]) -> Word:
    """Freely reduce, then cancel first-against-last tokens."""
    w = free_reduce(tokens)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def invert_word(word: Iterable[int]) -> Word:
    """The inverse word: reversed tokens, each inverted."""
    return tuple(-t for t in reversed(tuple(word)))


def parse_word(text: str) -> Word:
    """Parse ``a1 b2 A1`` style text; the empty word must be written ``e``.

    >>> parse_word("a1 b2 A1")
    (1, 4, -1)
    >>> parse_word("e")
    ()
    """
    text = text.strip()
    if text == "e":
        return ()
    if not text:
        raise ValueError("empty word must be written 'e'")
    return tuple(map(_code_of_text, text.split()))


def format_word(word: Iterable[int]) -> str:
    """Inverse of :func:`parse_word` on canonical text.

    >>> format_word((1, 4, -1))
    'a1 b2 A1'
    >>> format_word(())
    'e'
    """
    word = tuple(word)
    if not word:
        return "e"
    return " ".join(map(_text_of_code, word))


# The codec's token tables: each distinct token is converted once.  A raise
# is not cached, and the bound keeps a long-lived process from growing them
# without end on ever new indices.
@lru_cache(maxsize=4096)
def _code_of_text(tok: str) -> int:
    if _TOKEN.fullmatch(tok) is None:
        raise ValueError(f"bad token {tok!r}")
    return token_code(tok[0].lower(), int(tok[1:]), inverted=tok[0].isupper())


@lru_cache(maxsize=4096)
def _text_of_code(code: int) -> str:
    kind, index = token_kind_index(code)
    return (kind.upper() if code < 0 else kind) + str(index)


def max_index(word: Iterable[int]) -> int:
    """Largest generator index used; 0 for the empty word."""
    word = tuple(word)
    if 0 in word:
        raise ValueError("0 is not a generator code")
    return (max(map(abs, word), default=0) + 1) // 2


def shift_indices(word: Iterable[int], offset: int) -> Word:
    """Renumber a_i -> a_{i+offset} and b_i -> b_{i+offset}."""
    if offset < 0:
        raise ValueError("index shift must be nonnegative")
    return tuple(c + 2 * offset if c > 0 else c - 2 * offset for c in word)


def block_index(code: int, genus: int) -> int:
    """1-based position of a token's generator in the (a_1..a_g, b_1..b_g) order."""
    c = abs(code)
    if c == 0:
        raise ValueError("0 is not a generator code")
    i = (c + 1) // 2
    if i > genus:
        raise ValueError(f"generator index {i} exceeds genus {genus}")
    return i if c % 2 else genus + i


# bounded, so a long-lived process does not keep a table for every genus it saw
@lru_cache(maxsize=64)
def _block_letters(genus: int) -> dict[int, int]:
    """Each token code of genus ``genus``, signed, to its signed block index.

    The one dict is shared by every caller, which only reads it; a code
    whose index exceeds the genus has no entry.
    """
    return {s * c: s * block_index(c, genus) for c in range(1, 2 * genus + 1) for s in (1, -1)}


def _index_error(words: Iterable[Word], genus: int) -> ValueError:
    """The error for words with a letter past ``genus``, naming the first such word's largest index."""
    index = next(i for i in map(max_index, words) if i > genus)
    return ValueError(f"token index {index} exceeds genus {genus}")


def _exponent_rows(words: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each word's nonzero exponent sums as ``(generator - 1, sum)`` pairs in
    generator order, for letters 1..n, negative for inverses: the package's
    abelianized words, the sparse rows that ``intmatrix`` reads."""
    rows = []
    for w in words:
        sums = {}
        for b in w:
            if b > 0:
                sums[b] = sums.get(b, 0) + 1
            else:
                sums[-b] = sums.get(-b, 0) - 1
        rows.append(tuple(sorted((b - 1, x) for b, x in sums.items() if x)))
    return tuple(rows)


def abelianize_word(word: Iterable[int], genus: int) -> tuple[int, ...]:
    """Signed exponent sums in the (a_1..a_g, b_1..b_g) basis.

    >>> abelianize_word(parse_word("a1 b1 A1"), 1)
    (0, 1)
    """
    vec = [0] * (2 * genus)
    for c in word:
        vec[block_index(c, genus) - 1] += 1 if c > 0 else -1
    return tuple(vec)
