"""Byte-for-byte CLI output: every subcommand and format against stored goldens.

Each case in golden/cases.json names an argv, the exit code `main` returns
and the file holding its exact stdout.  The files were captured from the CLI
before its output code was restructured; a change here is a change to the
documented output.  The help goldens, `help.txt` and `help_<cmd>.txt`, are
`lieball -h` and `lieball <cmd> -h` at 80 columns.
"""

import json
import pathlib

import pytest

from lieball.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"] for c in CASES])
def test_golden_output(case, capsysbinary):
    code = main(case["argv"])
    out = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / case["stdout"]).read_bytes()


HELP = ["", "ktypes", "harmonic", "verify", "weyl", "ranges", "verma", "ehw"]


@pytest.mark.parametrize("command", HELP, ids=[c or "lieball" for c in HELP])
def test_help_output(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "-h"] if command else ["-h"])
    assert exit_.value.code == 0
    name = f"help_{command}.txt" if command else "help.txt"
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
