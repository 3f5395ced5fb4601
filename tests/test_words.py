import doctest

import pytest
from hypothesis import given, strategies as st

import trisect.words

from trisect.words import (
    abelianize_word,
    block_index,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert_word,
    max_index,
    parse_word,
    shift_indices,
    token_code,
    token_kind_index,
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


# the table-driven codec: token text <-> code, with the errors of the
# per-token arithmetic it replaced
wide_tokens = st.integers(min_value=-400, max_value=400).filter(lambda t: t != 0)


@given(st.lists(wide_tokens, max_size=12).map(tuple))
def test_codec_round_trip(w):
    text = format_word(w)
    assert parse_word(text) == w
    assert format_word(parse_word(text)) == text


@given(st.lists(wide_tokens, max_size=12).map(tuple), st.integers(min_value=1, max_value=200))
def test_index_helpers_match_token_kind_index(w, genus):
    assert max_index(w) == max((token_kind_index(c)[1] for c in w), default=0)
    assert max_index(iter(w)) == max_index(w)
    for c in w:
        kind, i = token_kind_index(c)
        if i > genus:
            with pytest.raises(ValueError, match=f"^generator index {i} exceeds genus {genus}$"):
                block_index(c, genus)
        else:
            assert block_index(c, genus) == (i if kind == "a" else genus + i)


def test_codec_error_texts():
    with pytest.raises(ValueError, match="^bad token 'c2'$"):
        parse_word("a1 c2")
    for call in (
        lambda: max_index((1, 0)),
        lambda: block_index(0, 3),
        lambda: abelianize_word((2, 0), 2),
        lambda: format_word((1, 0)),
    ):
        with pytest.raises(ValueError, match="^0 is not a generator code$"):
            call()
    with pytest.raises(ValueError, match="^generator index 3 exceeds genus 2$"):
        block_index(-5, 2)
    with pytest.raises(ValueError, match="^generator index 2 exceeds genus 1$"):
        abelianize_word(parse_word("a1 B2"), 1)


def test_bad_token_raises_on_every_call():
    # a raise is never cached: the same bad token fails each time, and a
    # good word parses between the failures
    for _ in range(3):
        with pytest.raises(ValueError, match="^bad token 'a0'$"):
            parse_word("a1 a0")
        assert parse_word("a1 b2") == (1, 4)
