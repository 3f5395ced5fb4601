"""In-process tests of ``cli.main``: what a subprocess cannot show (which
functions a command called) or would make too slow (fuzzing)."""

import ast
import contextlib
import hashlib
import io
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import trisect.cli as cli
import trisect.groups as groups
from conftest import FIXTURES
from trisect.diagrams import FAMILY_NAMES, connected_sum, slide_family, standard_diagram
from trisect.textio import serialize
from trisect.words import token_code


def test_cli_imports_no_private_name():
    # the CLI asks the other modules for what it prints by their public names
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("trisect"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_homcount_negative_cap_refused_before_simplifying(monkeypatch, capsys):
    calls = Counter()

    def counted(*args, _fn=groups.tietze_simplify):
        calls["tietze_simplify"] += 1
        return _fn(*args)

    monkeypatch.setattr(groups, "tietze_simplify", counted)
    path = str(FIXTURES / "cp2.tri")
    assert cli.main(["homcount", path, "--target", "s3", "--cap", "-1"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: cap must be nonnegative\n")
    assert calls["tietze_simplify"] == 0
    # the counter sees the call a valid cap makes
    assert cli.main(["homcount", path, "--target", "s3", "--cap", "0"]) == 3
    assert calls["tietze_simplify"] == 1


def test_parser_built_once_keeps_no_state(capsys):
    # main builds its parser once per process: repeated calls, a call after
    # a usage error and a call after one with an option all print what the
    # first call printed
    path = str(FIXTURES / "cp2_sum_cp2bar.tri")
    assert cli.build_parser() is cli.build_parser()

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    first, simplified = run(["pi1", path]), run(["pi1", path, "--simplify", "50"])
    assert first[0] == simplified[0] == 0 and first != simplified
    assert run(["pi1", path]) == first
    with pytest.raises(SystemExit) as exc:
        cli.main(["pi1", path, "--no-such-option"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run(["pi1", path]) == first
    report = run(["invariants", path])
    assert report[0] == 0 and run(["invariants", path]) == report


def test_form_check_failure_is_one_line_error(monkeypatch, capsys):
    # the runtime check of the intersection form ends in exit 1 and one
    # error line, like any other check failure
    def failing(d):
        raise ArithmeticError("intersection form is not unimodular of rank b2 on this diagram")

    monkeypatch.setattr(cli, "intersection_form", failing)
    for command in ("invariants", "form"):
        assert cli.main([command, str(FIXTURES / "cp2.tri")]) == 1
        err = capsys.readouterr().err
        assert err == "error: intersection form is not unimodular of rank b2 on this diagram\n"


def ladder_diagram(genus, seed):
    """A connected sum of S1xS3 (g/8 copies), S2xS2 (g/4) and CP2 or CP2BAR
    for the rest, in a seeded order, then 3g slides of each curve over the
    next along a seeded cycle of handles, with seeded signs and conjugators
    and the families in turn."""
    rng = random.Random(seed)
    names = ["S1xS3"] * (genus // 8) + ["S2xS2"] * (genus // 4)
    names += [rng.choice(("CP2", "CP2BAR")) for _ in range(genus - genus // 8 - 2 * (genus // 4))]
    rng.shuffle(names)
    d = standard_diagram(names[0])
    for name in names[1:]:
        d = connected_sum(d, standard_diagram(name))
    order = list(range(genus))
    rng.shuffle(order)
    for t in range(3 * genus):
        conj = tuple(
            rng.choice((1, -1)) * token_code(rng.choice("ab"), rng.randint(1, genus))
            for _ in range(rng.randint(0, 2))
        )
        i, j = order[t % genus], order[(t + 1) % genus]
        d = slide_family(d, FAMILY_NAMES[t % 3], i, j, conj, rng.choice((1, -1)))
    return d


def test_genus_32_form_and_invariants_pinned():
    # a large form, built in code (not a fixture, so it stays out of the
    # mutation corpus below), pinned by the SHA-256 of the two reports: a
    # 28 x 28 Gram matrix and H1 = Z^4, b2 = 28, signature 4, odd
    text = serialize(ladder_diagram(32, seed=32))
    expected = {
        "form": "77bd960f31b4b89518f5848ec418393fca2e7bb5a7383e8d7b6128683c60a9d8",
        "invariants": "a33e5c1cec2be16fe6bdc43e3e6181c1ac770b850929028a6496a3b5de4efcd9",
    }
    for command, digest in expected.items():
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
            assert cli.main([command, "-"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, command


# r12 is left out: its mutants reach the same checks as the small fixtures,
# but budget 50 does not keep a call on them short (one takes about 5 s in Tietze)
FIXTURE_LINES = tuple(
    tuple(p.read_text().splitlines()) for p in sorted(FIXTURES.glob("*.tri")) if p.stem != "r12"
)
# tokens that break a line's syntax, arity or range
JUNK = ("|", "a9", "x", "#", "genus", "-1", "alpha", "")
# small budgets and caps keep each call short on any mutation
COMMANDS = (
    ["validate"],
    ["invariants"],
    ["form"],
    ["pi1", "--simplify", "50"],
    ["homcount", "--target", "s3", "--simplify", "50", "--cap", "50000"],
    ["cube", "--verify", "50"],
    ["poincare-check", "--budget", "50"],
    ["stabilize", "--family", "beta"],
    ["slide", "--family", "gamma", "--curve", "1", "--over", "2", "--conj", "a1"],
)


@st.composite
def mutated_fixtures(draw):
    """A fixture with 1-4 tokens deleted, inserted or replaced.  Most edits put
    in-range letters into curve lists, so many mutants still parse and reach
    the invariants; the rest may hit any line or insert junk."""
    lines = [line.split(" ") for line in draw(st.sampled_from(FIXTURE_LINES))]
    genus = next((int(w[1]) for w in lines if w[0] == "genus"), 0)
    letters = [f"{c}{i}" for c in "abAB" for i in range(1, genus + 1)] or list(JUNK)
    curve_lines = [w for w in lines if w[0] in ("alpha", "beta", "gamma")] or lines
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        wild = draw(st.integers(min_value=0, max_value=4)) == 0
        words = draw(st.sampled_from(lines if wild else curve_lines))
        i = draw(st.integers(min_value=0 if wild else min(1, len(words)), max_value=len(words)))
        token = draw(st.sampled_from(JUNK if wild else letters))
        op = draw(st.sampled_from(("delete", "insert", "replace")))
        if op == "delete":
            del words[i : i + 1]
        elif op == "insert":
            words.insert(i, token)
        else:
            words[i : i + 1] = [token]
    return "\n".join(" ".join(words) for words in lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixtures_exit_cleanly(text):
    # every outcome is a documented exit code with a one-line message, never a traceback
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with (
            mock.patch("sys.stdin", io.StringIO(text)),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = cli.main([command[0], "-", *command[1:]])
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") <= 1, (command, err.getvalue())
