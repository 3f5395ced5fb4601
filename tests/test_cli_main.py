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
import trisect.invariants as invariants
from conftest import FIXTURES, moved_diagrams
from trisect.diagrams import FAMILY_NAMES, connected_sum, slide_family, standard_diagram
from trisect.invariants import form_invariants, intersection_form
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


def test_cube_dot_and_verify_are_exclusive(capsys):
    # --dot once printed DOT and exited 0 whatever --verify asked for; the
    # pair is now a usage error that prints nothing on stdout
    path = str(FIXTURES / "cp2.tri")
    for verify in ("-1", "0", "100"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cube", path, "--dot", "--verify", verify])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "not allowed with argument" in out.err
    assert cli.main(["cube", path, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


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
    # error line, like any other check failure: b2 off by one fails the
    # unimodularity check that both commands' routes share
    real = invariants.euler_characteristic
    monkeypatch.setattr(invariants, "euler_characteristic", lambda d: real(d) + 1)
    for command in ("invariants", "form"):
        assert cli.main([command, str(FIXTURES / "cp2.tri")]) == 1
        err = capsys.readouterr().err
        assert err == "error: intersection form is not unimodular of rank b2 on this diagram\n"


def invariants_form_lines(d):
    """The three form lines of ``trisect invariants`` on ``d``'s text."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(serialize(d))), contextlib.redirect_stdout(out):
        assert cli.main(["invariants", "-"]) == 0
    return [line for line in out.getvalue().splitlines() if line.startswith("form_")]


def gram_form_lines(d):
    """The same lines read off the Gram matrix that ``trisect form`` prints."""
    form = form_invariants(intersection_form(d))
    return [f"form_rank: {form.rank}", f"form_signature: {form.signature}", f"form_parity: {form.parity}"]


@settings(max_examples=60, deadline=None)
@given(moved_diagrams(torsion=True))
def test_invariants_form_lines_match_gram_matrix_on_moved(d):
    # the report reads rank, signature and parity off Q_K; they are the Gram
    # matrix's, which Q_K is congruent to plus zeros
    assert invariants_form_lines(d) == gram_form_lines(d)


def test_invariants_form_lines_match_gram_matrix_on_raw(raw_population):
    for d in raw_population:
        assert invariants_form_lines(d) == gram_form_lines(d), serialize(d)


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


# the SHA-256 of stdout and the exit code of each command on each fixture,
# so that code that should not change a report is tested for byte-identity
# (r12 is pinned by TestR12 in test_groups.py)
FIXTURE_COMMANDS = {
    "invariants": ["invariants"],
    "form": ["form"],
    "pi1": ["pi1", "--simplify", "10000"],
    "pi1_raw": ["pi1"],
    "cube": ["cube", "--verify", "100"],
    "cube_summary": ["cube"],
    "cube_dot": ["cube", "--dot"],
}
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
FIXTURE_REPORTS = {
    "cp2": {
        "invariants": (0, "196663382060c0b3b6b745e61a0ae05a712b6f9a0a5de45d3b7e949ed9179814"),
        "form": (0, "7952eb06383fd8c608943b17fef3f218b27512d08e895d41f092c7d2ab6ba026"),
        "pi1": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "pi1_raw": (0, "c3035b05702934cbeca163c1e41a873e01dc6827e8873f18ed7966236bc79c11"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "99e04927d2bdd3c089ee2993e212526760bd70b6b09645399662659b4dbc4a41"),
        "cube_dot": (0, "911a3e731dba8abe2034483ed66f20d04ccb31419216fbd0386d152b988c8ca6"),
    },
    "cp2_sum_cp2bar": {
        "invariants": (0, "df43e78136fb947e4d8fc05bf4bad0315157e702194eaf5b538d42e254318c17"),
        "form": (0, "9e47f35f7d5b57ba5e49dd4e89fada848b0534e68c3541c383cbc53f77995f7a"),
        "pi1": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "pi1_raw": (0, "6721cc422a21781f40faba24d9e82a81c5434450b7376dd94a677acd6a938c65"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "d6e69e30f456aa1961d30677b242b6958865f1a8a07aca70c2b884c65b205924"),
        "cube_dot": (0, "75e1ffd976f538bb800954b904747776edf082729d30a55c719f41038743787c"),
    },
    "cp2bar": {
        "invariants": (0, "57964e56a81e2bd99e6ecbc1c763179dbc8c6c368069136a8184b78cb903ff15"),
        "form": (0, "75d103f424f21a7d84df591647ebadbac9f35cdd4b3a4c4d8c60d133c4c5197d"),
        "pi1": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "pi1_raw": (0, "f97770879a51c2709ced8783421ee8007c61a93569c39360c80540ddb58cf43e"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "99e04927d2bdd3c089ee2993e212526760bd70b6b09645399662659b4dbc4a41"),
        "cube_dot": (0, "911a3e731dba8abe2034483ed66f20d04ccb31419216fbd0386d152b988c8ca6"),
    },
    "h1_torsion": {
        "invariants": (0, "9628e257fa7d78bfda414fa790388f9dad44399b317722cfd163bc8f7b7059c2"),
        "form": (0, "5be89464a53f9c27c4d284196b7c4be6a009fed7661d725fd69d569d8326e8c2"),
        "pi1": (0, "e60b0535fd14ac2f4f78129ba61fe33be72de877afcd7a710fb5eb3a4dd4b26f"),
        "pi1_raw": (0, "a3f219853e7cd91de50984abfaa795d1eb92a8f571722d85c3175e3cec4d79a9"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "67df4e3b34e5c453e1cc76adefcf0fe3ec3061cf0062db9b71d52c7e3d5075cd"),
        "cube_dot": (0, "8378090fd9e8cf24ef1239ed98e05d2c315408a088f8eb2040b3cefdc2a68c80"),
    },
    "heegaard_boring": {
        "invariants": (2, EMPTY),
        "form": (2, EMPTY),
        "pi1": (2, EMPTY),
        "pi1_raw": (2, EMPTY),
        "cube": (2, EMPTY),
        "cube_summary": (2, EMPTY),
        "cube_dot": (2, EMPTY),
    },
    "invalid_imprimitive": {
        "invariants": (1, EMPTY),
        "form": (1, EMPTY),
        "pi1": (1, EMPTY),
        "pi1_raw": (1, EMPTY),
        "cube": (1, EMPTY),
        "cube_summary": (1, EMPTY),
        "cube_dot": (1, EMPTY),
    },
    "noisy": {
        "invariants": (0, "196663382060c0b3b6b745e61a0ae05a712b6f9a0a5de45d3b7e949ed9179814"),
        "form": (0, "7952eb06383fd8c608943b17fef3f218b27512d08e895d41f092c7d2ab6ba026"),
        "pi1": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "pi1_raw": (0, "c3035b05702934cbeca163c1e41a873e01dc6827e8873f18ed7966236bc79c11"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "99e04927d2bdd3c089ee2993e212526760bd70b6b09645399662659b4dbc4a41"),
        "cube_dot": (0, "911a3e731dba8abe2034483ed66f20d04ccb31419216fbd0386d152b988c8ca6"),
    },
    "nonstandard_pair": {
        "invariants": (1, "248a33e1071669d4d622b76e4bd783efb31d8de2698273939d19ecf8b59c069d"),
        "form": (1, EMPTY),
        "pi1": (0, "e60b0535fd14ac2f4f78129ba61fe33be72de877afcd7a710fb5eb3a4dd4b26f"),
        "pi1_raw": (0, "e4a2d909c37dafbd3725120822ac4500e35f4022ca8aef54ca0aef964b7cbee4"),
        "cube": (1, EMPTY),
        "cube_summary": (1, EMPTY),
        "cube_dot": (1, EMPTY),
    },
    "s1xs3": {
        "invariants": (0, "7b690b8cda9832965505ea8ddf64ef5250d109f7997e07c4f72906c7321f842d"),
        "form": (0, "5be89464a53f9c27c4d284196b7c4be6a009fed7661d725fd69d569d8326e8c2"),
        "pi1": (0, "f6fdc79643f017210532ed1502e34b2fd24c1e0412621f7edff3f42628050e71"),
        "pi1_raw": (0, "557be764478c62f46f605196ee4b9c2d5efed5f170fb6545a27a1ce108c5c71b"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "2585d2f5b0fc76d154b1bad14741af938a363c08bd15fddda82fa05b1ba92ef2"),
        "cube_dot": (0, "2e2707edc83221247fd5fea598d99caa8ef88af2bf26f63f735d2c5c7acb46bb"),
    },
    "s2xs2": {
        "invariants": (0, "d1daf3f37fe753d5535dc13ea0e2c650782156250ac88ed4c145dac52e91047a"),
        "form": (0, "3f9a0f9a9dbc2e13ef017b3ef3d5dbdc3e9b70d0d498b6d992723d54ced7f44a"),
        "pi1": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "pi1_raw": (0, "0d7784dc3c37620477c8affa854c8b7d794417950d0ed53d0ff3e6402c8d8232"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "d6e69e30f456aa1961d30677b242b6958865f1a8a07aca70c2b884c65b205924"),
        "cube_dot": (0, "75e1ffd976f538bb800954b904747776edf082729d30a55c719f41038743787c"),
    },
    "s4": {
        "invariants": (0, "5bfa96194e376298ae5ed92c1a93db4fb1651f434840206770689aafb8f7a799"),
        "form": (0, "5be89464a53f9c27c4d284196b7c4be6a009fed7661d725fd69d569d8326e8c2"),
        "pi1": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "pi1_raw": (0, "3c4eb530c08add6655edeae90c1b9dc06cf9014c2912a64ac5a72eac7682e8b4"),
        "cube": (0, "401f06d1d3b1cd21095ce825d8ad02bf9f0e58f982f1094614e1e7c4b177a896"),
        "cube_summary": (0, "b83713c681a6da70b2e621e099a77311c8ccb62fc8e06dea38952dac088da85a"),
        "cube_dot": (0, "8009f1ea908db02cce3b617d8d76d13816659140b2dfaa3f55601176028b15fd"),
    },
}


def test_every_fixture_but_r12_has_pinned_reports():
    assert sorted(FIXTURE_REPORTS) == sorted(p.stem for p in FIXTURES.glob("*.tri") if p.stem != "r12")


@pytest.mark.parametrize("stem", sorted(FIXTURE_REPORTS))
def test_fixture_reports_pinned(stem):
    for name, command in FIXTURE_COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command[0], str(FIXTURES / f"{stem}.tri"), *command[1:]])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert (code, digest) == FIXTURE_REPORTS[stem][name], name


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
