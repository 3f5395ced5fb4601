"""Refusal branches of the public constructors and helpers: each call raises
its exception type with its message."""

import dataclasses
import re

import pytest

from trisect.diagrams import standard_diagram
from trisect.groups import MalformedCubeError, Presentation, build_cube, verify_cube
from trisect.intmatrix import IntMatrix
from trisect.textio import ParseError, parse, serialize
from trisect.words import shift_indices, token_code


def cp2_cube():
    return build_cube(standard_diagram("CP2"))


REFUSALS = [
    pytest.param(lambda: Presentation(-1, ()), ValueError, "negative generator count", id="negative-count"),
    pytest.param(
        lambda: Presentation(2, (), names=("x1",)), ValueError, "need one name per generator", id="name-count"
    ),
    pytest.param(
        lambda: Presentation(2, (), names="ab"),
        TypeError,
        "names 'ab' is one str, not a sequence of names",
        id="names-str",
    ),
    pytest.param(
        lambda: Presentation(1, ((),)), ValueError, "empty relator (builders drop these)", id="empty-relator"
    ),
    pytest.param(
        lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]), ValueError, "cannot multiply 1x2 by 1x2", id="matmul"
    ),
    pytest.param(
        lambda: verify_cube(dataclasses.replace(cube := cp2_cube(), edges=cube.edges[1:]), 0),
        MalformedCubeError,
        "cube does not have the twelve expected edges",
        id="cube-missing-edge",
    ),
    pytest.param(lambda: cp2_cube().edge("total", "surface"), KeyError, "('total', 'surface')", id="absent-edge"),
    pytest.param(
        lambda: standard_diagram("CP2").family("delta"), ValueError, "unknown family 'delta'", id="family"
    ),
    pytest.param(lambda: serialize(3), TypeError, "cannot serialize int", id="serialize"),
    pytest.param(lambda: token_code("c", 1), ValueError, "bad generator token ('c', 1)", id="token-kind"),
    pytest.param(lambda: shift_indices((1,), -1), ValueError, "index shift must be nonnegative", id="shift"),
    pytest.param(lambda: parse(""), ParseError, "empty diagram file (line 1)", id="empty-file"),
    pytest.param(
        lambda: parse("trisection\ngenus 1\n"), ParseError, "missing family alpha line (line 2)", id="cut-off-file"
    ),
]


@pytest.mark.parametrize("call, exc_type, message", REFUSALS)
def test_refusal(call, exc_type, message):
    with pytest.raises(exc_type, match=re.escape(message)) as exc:
        call()
    assert type(exc.value) is exc_type
