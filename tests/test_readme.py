"""The README's examples run as written, so the README cannot drift from the code."""

import io
import re
from pathlib import Path

from trisect import cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(lang=""):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, flags=re.M | re.S)


def test_cli_pipe_example(capsys, monkeypatch):
    prompt = "$ trisect standard CP2 | trisect invariants -\n"
    (block,) = [b for b in fenced_blocks() if b.startswith(prompt)]
    assert cli.main(["standard", "CP2"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert cli.main(["invariants", "-"]) == 0
    assert capsys.readouterr().out == block[len(prompt):]


def test_library_example_runs(capsys):
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("digraph")
