import doctest

import pytest
from hypothesis import given, strategies as st

import trisect.words

from trisect.words import (
    abelianize_word,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert_word,
    max_index,
    parse_word,
    shift_indices,
    token_code,
)

GENUS = 3
tokens = st.integers(min_value=-2 * GENUS, max_value=2 * GENUS).filter(lambda t: t != 0)
words = st.lists(tokens, max_size=12).map(tuple)


def test_docstring_examples():
    failures, _ = doctest.testmod(trisect.words)
    assert failures == 0


def test_free_cancellation():
    assert free_reduce(parse_word("a1 A1 b1")) == parse_word("b1")


def test_cyclic_cancellation():
    w = parse_word("A1 b1 a1")
    assert free_reduce(w) == w
    assert cyclic_reduce(w) == parse_word("b1")


def test_identity_word():
    assert free_reduce(()) == ()
    assert cyclic_reduce(()) == ()


def test_invert_examples():
    assert invert_word(parse_word("a1 b2")) == parse_word("B2 A1")
    assert invert_word(()) == ()
    assert free_reduce(invert_word(parse_word("a1 A1"))) == ()


def test_abelianize_examples():
    assert abelianize_word(parse_word("a1 b1 A1"), 1) == (0, 1)
    assert abelianize_word(parse_word("a1 a1"), 2) == (2, 0, 0, 0)
    assert abelianize_word(parse_word("a1 b2 A1 B2"), 2) == (0, 0, 0, 0)


def test_abelianize_index_overflow():
    with pytest.raises(ValueError):
        abelianize_word(parse_word("a2"), 1)


def test_token_codes_interleaved():
    assert token_code("a", 1) == 1
    assert token_code("b", 1) == 2
    assert token_code("a", 2) == 3
    assert token_code("b", 3, inverted=True) == -6


def test_parse_rejects_garbage():
    for bad in ("a0", "c1", "a", "1a", "a1b2", ""):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_format_parse_round_trip():
    for text in ("e", "a1", "a1 b2 A1 B2", "b10 A7"):
        assert format_word(parse_word(text)) == text


def test_shift_indices():
    assert shift_indices(parse_word("a1 B2"), 3) == parse_word("a4 B5")
    assert max_index(shift_indices(parse_word("a1"), 5)) == 6


@given(words)
def test_canonical_idempotent_and_shorter(w):
    for reduce in (free_reduce, cyclic_reduce):
        c = reduce(w)
        assert reduce(c) == c
        assert len(c) <= len(w)


@given(words, words)
def test_abelianize_additive(u, v):
    total = abelianize_word(free_reduce(u + v), GENUS)
    left = abelianize_word(u, GENUS)
    right = abelianize_word(v, GENUS)
    assert total == tuple(a + b for a, b in zip(left, right))


@given(words)
def test_abelianize_inverse_negates(w):
    assert abelianize_word(invert_word(w), GENUS) == tuple(
        -x for x in abelianize_word(w, GENUS)
    )


@given(words)
def test_double_inverse(w):
    assert free_reduce(invert_word(invert_word(w))) == free_reduce(w)


@given(words)
def test_cyclic_reduce_is_conjugacy_invariant_length(w):
    # rotating a cyclically reduced word never changes its reduced length
    c = cyclic_reduce(w)
    for s in range(len(c)):
        assert len(cyclic_reduce(c[s:] + c[:s])) == len(c)
