"""End-to-end CLI tests; every invocation is a real subprocess."""

import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "trisect", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_validate_ok():
    res = run_cli("validate", str(FIXTURES / "cp2.tri"))
    assert res.returncode == 0
    assert "status: valid" in res.stdout
    assert "genus: 1" in res.stdout


def test_validate_heegaard():
    res = run_cli("validate", str(FIXTURES / "heegaard_boring.tri"))
    assert res.returncode == 0
    assert "kind: heegaard" in res.stdout


def test_validate_imprimitive_exits_1_with_divisors():
    res = run_cli("validate", str(FIXTURES / "invalid_imprimitive.tri"))
    assert res.returncode == 1
    assert "[2]" in res.stderr


def test_parse_error_exits_2():
    res = run_cli("validate", "-", stdin="genus 1\n")
    assert res.returncode == 2
    assert "line 1" in res.stderr
    # a non-ASCII digit is a parse error with its location, not a traceback
    res = run_cli("validate", "-", stdin="trisection\ngenus \u00b2\nalpha\nbeta\ngamma\n")
    assert res.returncode == 2
    assert "(line 2, column 1)" in res.stderr


def test_nonstandard_pair_fails_invariants_but_validates():
    path = str(FIXTURES / "nonstandard_pair.tri")
    assert run_cli("validate", path).returncode == 0
    res = run_cli("invariants", path)
    assert res.returncode == 1
    assert "alpha_beta" in res.stderr and "[2]" in res.stderr


def test_trisection_only_commands_reject_heegaard_files():
    res = run_cli("pi1", str(FIXTURES / "heegaard_boring.tri"))
    assert res.returncode == 2


def test_invariants_cp2():
    res = run_cli("invariants", str(FIXTURES / "cp2.tri"))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "euler: 3" in lines
    assert "form_rank: 1" in lines
    assert "form_signature: 1" in lines
    assert "form_parity: odd" in lines


def test_invariants_deterministic():
    a = run_cli("invariants", str(FIXTURES / "s2xs2.tri"))
    b = run_cli("invariants", str(FIXTURES / "s2xs2.tri"))
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_standard_pipes_into_invariants():
    out = run_cli("standard", "S4")
    assert out.returncode == 0
    res = run_cli("invariants", "-", stdin=out.stdout)
    assert res.returncode == 0
    assert "euler: 2" in res.stdout
    assert "H1: 0" in res.stdout and "H2: 0" in res.stdout and "H3: 0" in res.stdout


def test_standard_unknown_name_usage_error():
    res = run_cli("standard", "T4")
    assert res.returncode == 2


def test_standard_output_is_canonical():
    res = run_cli("standard", "S2xS2")
    assert res.stdout == (FIXTURES / "s2xs2.tri").read_text()


def test_pi1_simplify():
    res = run_cli("pi1", str(FIXTURES / "s1xs3.tri"), "--simplify", "1000")
    assert res.returncode == 0
    assert "generators: 1" in res.stdout
    assert "abelianization: Z" in res.stdout


def test_form_matrix():
    res = run_cli("form", str(FIXTURES / "cp2_sum_cp2bar.tri"))
    assert res.returncode == 0
    assert res.stdout == "size: 2\nrow: 1 0\nrow: 0 -1\n"


def test_invariants_h1_torsion_prints_full_report():
    # the form lives on H2 / Tors, so H1 torsion needs no refusal; here b2 = 0
    res = run_cli("invariants", str(FIXTURES / "h1_torsion.tri"))
    assert res.returncode == 0
    assert res.stdout == (
        "genus: 3\nk_alpha_beta: 1\nk_beta_gamma: 1\nk_gamma_alpha: 1\neuler: 2\n"
        "H0: Z\nH1: Z/2\nH2: Z/2\nH3: 0\nH4: Z\n"
        "form_rank: 0\nform_signature: 0\nform_parity: even\n"
    )
    assert res.stderr == ""


def test_form_h1_torsion_prints_empty_form():
    res = run_cli("form", str(FIXTURES / "h1_torsion.tri"))
    assert res.returncode == 0
    assert res.stdout == "size: 0\n"
    assert res.stderr == ""


def test_stabilize_prints_canonical_diagram():
    res = run_cli("stabilize", str(FIXTURES / "s4.tri"), "--family", "alpha")
    assert res.returncode == 0
    assert res.stdout == "trisection\ngenus 1\nalpha b1\nbeta a1\ngamma a1\n"


def test_slide_with_conjugator():
    res = run_cli(
        "slide",
        str(FIXTURES / "s2xs2.tri"),
        "--family", "gamma", "--curve", "1", "--over", "2", "--conj", "a1", "--sign", "-1",
    )
    assert res.returncode == 0
    out = run_cli("invariants", "-", stdin=res.stdout)
    assert "form_parity: even" in out.stdout


def test_slide_bad_index_usage_error():
    res = run_cli(
        "slide", str(FIXTURES / "cp2.tri"), "--family", "alpha", "--curve", "1", "--over", "2"
    )
    assert res.returncode == 2


def test_connect_sum():
    res = run_cli(
        "connect-sum", str(FIXTURES / "cp2.tri"), str(FIXTURES / "cp2bar.tri")
    )
    assert res.returncode == 0
    assert res.stdout == (FIXTURES / "cp2_sum_cp2bar.tri").read_text()


def test_homcount():
    res = run_cli("homcount", str(FIXTURES / "s1xs3.tri"), "--target", "s3")
    assert res.returncode == 0
    assert "count: 6" in res.stdout


def test_homcount_cap_refused_exits_3():
    res = run_cli(
        "homcount", str(FIXTURES / "s2xs2.tri"),
        "--target", "s5", "--cap", "10", "--simplify", "0",
    )
    assert res.returncode == 3
    assert "refused" in res.stderr


def test_homcount_cap_zero_refused_negative_cap_usage_error():
    path = str(FIXTURES / "cp2.tri")
    zero = run_cli("homcount", path, "--target", "s3", "--cap", "0")
    assert zero.returncode == 3
    assert zero.stderr == "refused: enumeration cost 1 exceeds cap 0\n"
    negative = run_cli("homcount", path, "--target", "s3", "--cap", "-1")
    assert negative.returncode == 2
    assert negative.stdout == ""
    assert negative.stderr == "error: cap must be nonnegative\n"


def test_cube_summary_and_dot():
    summary = run_cli("cube", str(FIXTURES / "cp2.tri"))
    assert summary.returncode == 0
    assert summary.stdout.count("vertex ") == 8
    assert summary.stdout.count("edge: ") == 12
    dot = run_cli("cube", str(FIXTURES / "cp2.tri"), "--dot")
    assert dot.returncode == 0
    assert dot.stdout.startswith("digraph")
    assert dot.stdout.count("->") == 12


def test_cube_verify():
    res = run_cli("cube", str(FIXTURES / "s1xs3.tri"), "--verify", "1000")
    assert res.returncode == 0
    assert res.stdout.count("Verified") == 6
    assert "verdict: ok" in res.stdout


# fixtures that do not build a cube, with the exit code of ``cube --verify``
NO_CUBE = {"heegaard_boring": 2, "invalid_imprimitive": 1, "nonstandard_pair": 1}


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.tri")), ids=lambda p: p.stem)
def test_cube_verify_budget_zero(path):
    # every face of a built cube closes syntactically, so no Tietze step is needed
    res = run_cli("cube", str(path), "--verify", "0")
    if path.stem in NO_CUBE:
        assert (res.returncode, res.stdout) == (NO_CUBE[path.stem], "")
        return
    assert (res.returncode, res.stderr) == (0, "")
    faces = [line for line in res.stdout.splitlines() if line.startswith("face ")]
    assert len(faces) == 6
    assert all(line.endswith(": Verified") for line in faces)
    assert res.stdout.endswith("verdict: ok\n")


@pytest.mark.parametrize(
    "path", [p for p in sorted(FIXTURES.glob("*.tri")) if p.stem not in NO_CUBE], ids=lambda p: p.stem
)
def test_cube_verify_negative_budget_is_usage_error(path):
    res = run_cli("cube", str(path), "--verify", "-1")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: budget must be nonnegative\n"


def test_poincare_check():
    res = run_cli("poincare-check", str(FIXTURES / "s4.tri"))
    assert res.returncode == 0
    assert "verdict: TrivializedPi1" in res.stdout
    res = run_cli("poincare-check", str(FIXTURES / "cp2.tri"))
    assert res.returncode == 0
    assert "verdict: NotHomotopySphere" in res.stdout


def test_usage_error_no_command():
    res = run_cli()
    assert res.returncode == 2


def test_missing_file_exits_2():
    res = run_cli("validate", str(FIXTURES / "does_not_exist.tri"))
    assert res.returncode == 2


@pytest.mark.parametrize(
    "name,euler", [("s4", 2), ("cp2", 3), ("s1xs3", 0), ("s2xs2", 4)]
)
def test_euler_across_fixtures(name, euler):
    res = run_cli("invariants", str(FIXTURES / f"{name}.tri"))
    assert f"euler: {euler}" in res.stdout
