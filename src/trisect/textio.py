"""Plain-text diagram files, report formatting, and DOT output for cubes.

File format::

    trisection            # or: heegaard
    genus 2
    alpha a1 | a2
    beta b1 | b2
    gamma a1 b2 | a2 b1

``#`` starts a comment, blank lines are ignored, words use the token syntax
of :mod:`trisect.words` and curves within a family are separated by ``|``.
Serialization is canonical (reduced words, fixed family order), so
parse/serialize round-trips are byte-identical on canonical files.
"""

from __future__ import annotations

import re

from .diagrams import (
    HeegaardDiagram,
    TrisectionDiagram,
    heegaard_diagram,
    trisection_diagram,
)
from .groups import CUBE_VERTICES, GroupTrisectionCube, Presentation, abelianize_presentation
from .words import _code_of_text, format_word, parse_word


class ParseError(Exception):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body.rstrip()


def _first_bad_token(chunk):
    """Offset in ``chunk`` of its first whitespace-separated token that is not
    a generator.  :func:`parse_word` refuses a nonblank chunk only for such a
    token, ``e`` among several included, so one is found."""
    for tok in re.finditer(r"\S+", chunk):
        try:
            _code_of_text(tok.group())
        except ValueError:
            return tok.start()


def parse(text: str):
    """Parse diagram text into a TrisectionDiagram or HeegaardDiagram."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty diagram file", line=1)
    pos = 0

    def take(expect):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"missing {expect} line", line=lines[-1][0])
        entry = lines[pos]
        pos += 1
        return entry

    lineno, body = take("kind")
    kind = body.strip()
    if kind not in ("trisection", "heegaard"):
        raise ParseError(f"expected 'trisection' or 'heegaard', got {kind!r}", line=lineno, column=1)

    lineno, body = take("genus")
    parts = body.split()
    if len(parts) != 2 or parts[0] != "genus" or not (parts[1].isascii() and parts[1].isdigit()):
        raise ParseError(f"expected 'genus <n>', got {body.strip()!r}", line=lineno, column=1)
    genus = int(parts[1])

    wanted = ("alpha", "beta", "gamma") if kind == "trisection" else ("alpha", "beta")
    families = []
    for name in wanted:
        lineno, body = take(f"family {name}")
        head = body.split(None, 1)[0]
        if head != name:
            raise ParseError(f"expected family {name!r}, got {head!r}", line=lineno, column=1)
        offset = body.index(head) + len(head)  # where the next chunk starts in the line
        words = []
        if body[offset:].strip():
            for chunk in body[offset:].split("|"):
                if not chunk.strip():
                    raise ParseError("empty curve entry (write 'e' for the empty word)", line=lineno)
                try:
                    words.append(parse_word(chunk))
                except ValueError as exc:
                    col = offset + _first_bad_token(chunk) + 1
                    raise ParseError(str(exc), line=lineno, column=col) from None
                offset += len(chunk) + 1
        if len(words) != genus:
            raise ParseError(
                f"family {name} has {len(words)} curves, genus is {genus}", line=lineno
            )
        families.append(words)
    if pos < len(lines):
        lineno, body = lines[pos]
        raise ParseError(f"unexpected line {body.strip()!r}", line=lineno)
    if kind == "trisection":
        return trisection_diagram(genus, *families)
    return heegaard_diagram(genus, *families)


def serialize(d) -> str:
    """Canonical text form; inverse to :func:`parse` on canonical files."""
    if isinstance(d, TrisectionDiagram):
        kind = "trisection"
        fams = (("alpha", d.alpha), ("beta", d.beta), ("gamma", d.gamma))
    elif isinstance(d, HeegaardDiagram):
        kind = "heegaard"
        fams = (("alpha", d.first), ("beta", d.second))
    else:
        raise TypeError(f"cannot serialize {type(d).__name__}")
    lines = [kind, f"genus {d.genus}"]
    for name, system in fams:
        if system.words:
            lines.append(name + " " + " | ".join(map(format_word, system.words)))
        else:
            lines.append(name)
    return "\n".join(lines) + "\n"


def format_abelian(rank: int, torsion=()) -> str:
    """Readable abelian group: '0', 'Z', 'Z^2 + Z/2', ..."""
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def format_relator(word, names) -> str:
    """Relator text using generator names; uppercase marks the inverse."""
    if not word:
        return "e"
    return " ".join(names[t - 1] if t > 0 else names[-t - 1].swapcase() for t in word)


def format_presentation(p: Presentation) -> list[str]:
    """Report lines for a presentation."""
    names = p.generator_names()
    lines = [f"generators: {p.num_generators}"]
    if p.num_generators:
        lines.append("names: " + " ".join(names))
    lines.append(f"relators: {len(p.relators)}")
    lines.extend(f"relator: {format_relator(r, names)}" for r in p.relators)
    return lines


def emit_cube_dot(cube: GroupTrisectionCube) -> str:
    """DOT digraph with 8 labeled vertices and 12 edges."""
    lines = ["digraph group_trisection_cube {"]
    for name in CUBE_VERTICES:
        p = cube.vertices[name]
        rank, torsion = abelianize_presentation(p)
        tors = ", ".join(str(t) for t in torsion)
        label = f"{name}: rank {rank}, torsion [{tors}], relators {len(p.relators)}"
        lines.append(f'  "{name}" [label="{label}"];')
    for e in cube.edges:
        lines.append(f'  "{e.source}" -> "{e.target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
