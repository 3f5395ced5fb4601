from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trisect.diagrams import HeegaardDiagram, InvalidCutSystemError, TrisectionDiagram, standard_diagram
from trisect.groups import build_cube
from trisect.textio import (
    ParseError,
    emit_cube_dot,
    format_abelian,
    parse,
    serialize,
)
from trisect.words import parse_word

FIXTURES = Path(__file__).parent / "fixtures"

CANONICAL_FIXTURES = sorted(
    p for p in FIXTURES.glob("*.tri") if p.stem not in ("noisy", "invalid_imprimitive")
)


def test_parse_cp2_matches_standard():
    text = "trisection\ngenus 1\nalpha a1\nbeta b1\ngamma a1 b1\n"
    assert serialize(parse(text)) == serialize(standard_diagram("CP2"))


def test_parse_genus_zero():
    d = parse("trisection\ngenus 0\nalpha\nbeta\ngamma\n")
    assert isinstance(d, TrisectionDiagram) and d.genus == 0


def test_parse_heegaard():
    d = parse("heegaard\ngenus 1\nalpha a1\nbeta b1\n")
    assert isinstance(d, HeegaardDiagram)


def test_missing_kind_line():
    with pytest.raises(ParseError) as exc:
        parse("genus 1\nalpha a1\nbeta b1\ngamma a1 b1\n")
    assert exc.value.line == 1


def test_bad_genus_line():
    with pytest.raises(ParseError) as exc:
        parse("trisection\ngenus x\nalpha\nbeta\ngamma\n")
    assert exc.value.line == 2
    # superscript two and full-width zero pass str.isdigit() but are not
    # numerals of the file format
    for genus in ("\u00b2", "\uff10"):
        with pytest.raises(ParseError) as exc:
            parse(f"trisection\ngenus {genus}\nalpha\nbeta\ngamma\n")
        assert (exc.value.line, exc.value.column) == (2, 1), genus


def test_bad_token_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("trisection\ngenus 1\nalpha c1\nbeta b1\ngamma a1 b1\n")
    assert exc.value.line == 3
    assert exc.value.column == 7
    # the bad token is searched for after the family keyword and within its chunk
    for family, column in (("alpha a1 | a", 12), ("alpha b2 | a1 2", 15)):
        with pytest.raises(ParseError) as exc:
            parse(f"trisection\ngenus 2\n{family}\nbeta b1 | b2\ngamma a1 | a2\n")
        assert (exc.value.line, exc.value.column) == (3, column)
    # the empty word e is a bad token only when its chunk holds others
    with pytest.raises(ParseError) as exc:
        parse("trisection\ngenus 1\nalpha a1 e\nbeta b1\ngamma a1 b1\n")
    assert (exc.value.line, exc.value.column) == (3, 10)
    assert str(exc.value) == "bad token 'e' (line 3, column 10)"


TOKENS = ("a1", "B2", "b1", "A3", "e", "c1", "a0", "2", "a", "A01", "ab1", "a1b", "E", "\u00e91", "a\u00b2")


def refused(token):
    try:
        parse_word(token)
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4), min_size=1, max_size=3),
       st.sampled_from((" ", "  ", "\t")))
def test_every_family_line_word_error_carries_a_column(chunks, gap):
    # parse_word refuses a word only for a bad token, or e among others, so
    # every ParseError of a family line of nonblank curves points at a
    # column, and the token there is such a token
    genus = len(chunks)
    line = "alpha" + "|".join(gap + gap.join(tokens) + gap for tokens in chunks)
    empty = " | ".join("e" * genus)
    text = f"trisection\ngenus {genus}\n{line}\nbeta {empty}\ngamma {empty}\n"
    with pytest.raises((ParseError, InvalidCutSystemError)) as exc:
        parse(text)  # a line that parses holds empty curves, which validation refuses
    if isinstance(exc.value, ParseError):
        assert exc.value.line == 3 and exc.value.column is not None
        at = exc.value.column - 1
        token, chunk = line[at:].split()[0], line.split("|")[line[:at].count("|")].split()
        assert refused(token) or (token == "e" and len(chunk) > 1)


def test_arity_mismatch():
    with pytest.raises(ParseError) as exc:
        parse("trisection\ngenus 2\nalpha a1\nbeta b1 | b2\ngamma a1 | a2\n")
    assert exc.value.line == 3
    assert "genus" in str(exc.value)


def test_family_order_enforced():
    with pytest.raises(ParseError):
        parse("trisection\ngenus 1\nbeta b1\nalpha a1\ngamma a1 b1\n")


def test_trailing_junk_rejected():
    with pytest.raises(ParseError) as exc:
        parse("trisection\ngenus 0\nalpha\nbeta\ngamma\ndelta\n")
    assert exc.value.line == 6


def test_validation_failures_pass_through():
    from trisect.diagrams import InvalidCutSystemError

    with pytest.raises(InvalidCutSystemError):
        parse((FIXTURES / "invalid_imprimitive.tri").read_text())


@pytest.mark.parametrize("path", CANONICAL_FIXTURES, ids=lambda p: p.stem)
def test_round_trip_byte_identical(path):
    text = path.read_text()
    assert serialize(parse(text)) == text


def test_noisy_file_parses_and_stabilizes():
    text = (FIXTURES / "noisy.tri").read_text()
    once = serialize(parse(text))
    assert once == serialize(standard_diagram("CP2"))
    assert serialize(parse(once)) == once


def test_words_are_canonicalized_on_parse():
    d = parse("trisection\ngenus 1\nalpha b1 a1 B1\nbeta b1\ngamma a1 b1\n")
    # cyclic reduction rewrites the alpha curve as a1
    assert serialize(d).splitlines()[2] == "alpha a1"


def test_format_abelian():
    assert format_abelian(0) == "0"
    assert format_abelian(1) == "Z"
    assert format_abelian(2) == "Z^2"
    assert format_abelian(1, (2, 4)) == "Z + Z/2 + Z/4"
    assert format_abelian(0, (3,)) == "Z/3"


class TestDot:
    def test_shape(self):
        dot = emit_cube_dot(build_cube(standard_diagram("S4")))
        assert dot.count("label=") == 8
        assert dot.count("->") == 12
        assert dot.startswith("digraph")

    def test_cp2_labels(self):
        dot = emit_cube_dot(build_cube(standard_diagram("CP2")))
        assert '"surface" [label="surface: rank 2, torsion [], relators 1"];' in dot
        assert "handlebody_alpha: rank 1" in dot
        assert "total: rank 0" in dot

    def test_deterministic(self):
        cube = build_cube(standard_diagram("S2xS2"))
        assert emit_cube_dot(cube) == emit_cube_dot(cube)
